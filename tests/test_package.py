"""The package's public surface."""

import ast
from pathlib import Path

import abcu

EXPORTED = {
    "AV", "AbcuError", "ApprovalBallot", "ApprovalProfile", "BadEditError", "BadKError",
    "BadThresholdError", "CC", "CandidateInCommitteeError", "CandidateRegistry",
    "CapExceededError", "Committee", "CycleDetectedError", "DEFAULT_CAP", "Decision",
    "DivisibilityError", "EdgeOutsideMiddleError", "GadgetOutput", "GroupWitness",
    "InputError", "ModelClass", "ModelMismatchError", "NoPolyAlgorithmError",
    "OneInThreeInstance", "PAV", "PartialBallot", "PartialProfile",
    "PartitionIncompleteError", "PartitionOverlapError", "ProfileSyntaxError",
    "ResourceRefusal", "SAV", "ScoreDiffReport", "ScoringFunction",
    "ShapeMismatchError", "TableOutOfRangeError", "TooLargeError", "TooManyVotersError",
    "UnknownCandidateError", "WeightFunction", "X3CInstance", "as_partial",
    "ballot_score", "binary_rule", "build_cc_3va", "build_linear_x3c", "check_axiom",
    "check_axiom_brute", "check_ejr", "check_jr", "check_pjr", "classify",
    "committees_by_mask", "complete_profile", "completions_of_ballot",
    "count_ballot_completions", "count_completions", "defeats", "enumerate_completions",
    "errors", "eval_weight", "is_completion", "is_linearly_ordered", "is_three_valued",
    "is_winning_committee", "jr_modification_check", "make_partial_ballot",
    "max_diff_ballot", "max_diff_profile", "model", "neccom", "necessary",
    "necessary_axiom_by_scan", "necjr", "necmem", "necmem_av_3va", "necmem_av_linear",
    "necmem_binary_linear", "pad_profile", "parse_one_in_three", "parse_rule_spec",
    "parse_x3c", "poscom", "poscom_av_3va", "poscom_binary_linear", "poscom_brute",
    "posjr", "posmem", "posmem_av_linear", "possible", "possible_axiom_by_scan",
    "profile_score", "reductions", "representation", "rules",
    "solve_one_in_three_brute", "solve_x3c_brute", "validate_partial_profile",
    "verify_weight_relation", "winning_committees",
}


def test_public_names_are_exactly_the_declared_set():
    assert len(abcu.__all__) == len(set(abcu.__all__))
    assert set(abcu.__all__) == EXPORTED
    assert set(abcu.__all__) <= vars(abcu).keys()


def test_package_defines_no_module_hooks():
    # Every exported name is bound at import, so the package needs no
    # module-level __getattr__ or __dir__ to supply one.
    tree = ast.parse(Path(abcu.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    defined |= {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert not defined & {"__getattr__", "__dir__"}


def _library_trees():
    src = Path(abcu.__file__).parent
    for path in sorted(src.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_modules_use_no_private_names_of_other_modules():
    # Each module keeps its helpers to itself: no module imports a
    # _-prefixed name from another abcu module, and _-prefixed attributes
    # are read only on self or cls, never on another module or on another
    # class's objects (registry._index, say).
    faults = []
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                target = node.module or ""
                if node.level == 0 and target.split(".")[0] != "abcu":
                    continue
                faults += [
                    f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{target}"
                    for alias in node.names if _private(alias.name)
                ]
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                owner = node.value
                if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                    faults.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
    assert faults == []


def test_committee_scans_walk_committee_masks():
    # rules.committee_masks is the one committee iterator; the frozenset
    # view committees_by_mask is for callers outside the library.
    faults = [
        f"{path.name}:{node.lineno}"
        for path, tree in _library_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "committees_by_mask" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert faults == []


def test_rules_alone_builds_entry_tables_and_scorers_get_ballots():
    # rules.entry_table is the one map of scaled entries: only rules
    # constructs an EntryTable, and a Scorer always scores given ballots,
    # so code that needs entries alone reads the table, not a Scorer.
    faults = []
    for path, tree in _library_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "EntryTable" and path.name != "rules.py":
                faults.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            if name == "Scorer" and len(node.args) < 4 and not any(
                    keyword.arg == "ballots" for keyword in node.keywords):
                faults.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert faults == []


def _top_level_sites(tree, hit):
    # The module-level def or class holding each node that hit accepts.
    return [
        getattr(top, "name", top.lineno)
        for top in tree.body for node in ast.walk(top) if hit(node)
    ]


def test_one_function_routes_the_queries():
    # possible.route is the one route table of poscom, posmem and
    # necmem: it alone checks method against ("auto", "poly", "brute")
    # and constructs NoPolyAlgorithmError, so the dispatch is not copied.
    def refusal(node):
        return (isinstance(node, ast.Call)
                and "NoPolyAlgorithmError" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)))

    def method_check(node):
        return (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                and any(isinstance(c, ast.Tuple)
                        and [getattr(e, "value", None) for e in c.elts] == ["auto", "poly", "brute"]
                        for c in node.comparators))

    for hit in (refusal, method_check):
        sites = [
            f"{path.name}:{site}"
            for path, tree in _library_trees() for site in _top_level_sites(tree, hit)
        ]
        assert sites == ["possible.py:route"], (hit.__name__, sites)


def test_one_engine_lists_the_completions():
    # model.completion_options alone runs the cap check and raises
    # CapExceededError, and enumerate_completions alone multiplies the
    # voters' options out, so no scan counts or lists completions its own way.
    def refusal(node):
        return (isinstance(node, ast.Call)
                and "CapExceededError" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None)))

    def product(node):
        return (isinstance(node, ast.Attribute) and node.attr == "product"
                or isinstance(node, ast.alias) and node.name == "product")

    for hit, want in ((refusal, "completion_options"), (product, "enumerate_completions")):
        sites = [
            f"{path.name}:{site}"
            for path, tree in _library_trees() for site in _top_level_sites(tree, hit)
        ]
        assert sites == [f"model.py:{want}"], (hit.__name__, sites)


def test_one_function_writes_the_document_store():
    # io._keep alone writes io._kept, once per text, under the store's
    # lock: no other code stores into it or deletes from it by subscript,
    # or calls a dict method that changes it.
    def store(node):
        return "_kept" in (getattr(node, "id", None), getattr(node, "attr", None))

    def write(node):
        if isinstance(node, ast.Subscript):
            return store(node.value) and isinstance(node.ctx, (ast.Store, ast.Del))
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("pop", "popitem", "clear", "update", "setdefault")
                and store(node.func.value))

    sites = {
        f"{path.name}:{site}"
        for path, tree in _library_trees() for site in _top_level_sites(tree, write)
    }
    assert sites == {"io.py:_keep"}


def test_library_holds_no_assert_statements():
    # Invariants are explicit checks; python -O strips assert statements.
    faults = [
        f"{path.name}:{node.lineno}"
        for path, tree in _library_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert faults == []


BALLOT_PARTS = {"top", "middle", "bottom", "approved"}


def test_only_model_builds_masks_from_ballot_parts():
    # Ballots carry their candidate-id masks (top_mask, middle_mask, up,
    # down, mask), built in model; any other module reads those instead
    # of passing a ballot's part to mask_of.
    faults = []
    for path, tree in _library_trees():
        if path.name == "model.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "mask_of":
                continue
            faults += [
                f"{path.name}:{node.lineno} {ast.unparse(node)}"
                for arg in node.args for part in ast.walk(arg)
                if isinstance(part, ast.Attribute) and part.attr in BALLOT_PARTS
            ]
    assert faults == []


def test_only_model_reads_the_order_maps():
    # A ballot's order is read through its above, avoiding and overlaps
    # methods; the up and down maps behind them stay inside model.
    faults = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path, tree in _library_trees() if path.name != "model.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("up", "down")
    ]
    assert faults == []


def _submask_step(node):
    # (x - y) & y: the step to the next submask of y.
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    left, right = node.left, node.right
    return (isinstance(left, ast.BinOp) and isinstance(left.op, ast.Sub)
            and isinstance(left.right, ast.Name) and isinstance(right, ast.Name)
            and left.right.id == right.id)


def test_only_model_walks_submasks():
    # A ballot's feasible overlaps come from PartialBallot.overlaps; no
    # other module walks the submasks of a middle and filters them.
    walkers = {
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path, tree in _library_trees() for node in ast.walk(tree) if _submask_step(node)
    }
    assert {w.split(":")[0] for w in walkers} == {"model.py"}, sorted(walkers)


def test_only_checked_builders_construct_partial_ballots():
    # make_partial_ballot checks a ballot built from outside input, the
    # loader's included. as_partial and pad_profile build theirs from
    # ballots already checked. No other library code calls the
    # PartialBallot constructor.
    builders = {
        (path.name, getattr(stmt, "name", None))
        for path, tree in _library_trees()
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and "PartialBallot" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert builders == {("model.py", "make_partial_ballot"), ("model.py", "as_partial"),
                        ("reductions.py", "pad_profile")}

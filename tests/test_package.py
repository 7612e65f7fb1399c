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
    assert all(hasattr(abcu, name) for name in abcu.__all__)



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

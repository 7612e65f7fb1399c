"""Approval-based committee queries over incomplete ballots.

The package answers four families of questions about an approval
profile whose ballots may be undecided on part of the candidate set:
whether a committee can or must win under a scoring rule, whether a
candidate can or must belong to a winning committee, whether a committee
satisfies the justified-representation family of axioms, and whether an
incomplete profile can or must satisfy them once completed.
"""

import importlib.util
import sys
import threading
import types

from .errors import (
    AbcuError,
    BadEditError,
    BadKError,
    BadThresholdError,
    CandidateInCommitteeError,
    CapExceededError,
    CycleDetectedError,
    DivisibilityError,
    EdgeOutsideMiddleError,
    InputError,
    ModelMismatchError,
    NoPolyAlgorithmError,
    PartitionIncompleteError,
    PartitionOverlapError,
    ProfileSyntaxError,
    ResourceRefusal,
    ShapeMismatchError,
    TableOutOfRangeError,
    TooLargeError,
    TooManyVotersError,
    UnknownCandidateError,
)
from .model import (
    DEFAULT_CAP,
    ApprovalBallot,
    ApprovalProfile,
    CandidateRegistry,
    Decision,
    ModelClass,
    PartialBallot,
    PartialProfile,
    as_partial,
    classify,
    complete_profile,
    completions_of_ballot,
    count_ballot_completions,
    count_completions,
    enumerate_completions,
    is_completion,
    is_linearly_ordered,
    is_three_valued,
    make_partial_ballot,
    validate_partial_profile,
)
from .necessary import (
    ScoreDiffReport,
    max_diff_ballot,
    max_diff_profile,
    neccom,
    necmem,
    necmem_av_3va,
    necmem_av_linear,
    necmem_binary_linear,
)
from .possible import (
    poscom,
    poscom_av_3va,
    poscom_binary_linear,
    poscom_brute,
    posmem,
    posmem_av_linear,
)
from .representation import (
    GroupWitness,
    check_axiom,
    check_axiom_brute,
    check_ejr,
    check_jr,
    check_pjr,
    jr_modification_check,
    necessary_axiom_by_scan,
    necjr,
    posjr,
    possible_axiom_by_scan,
)
from .rules import (
    AV,
    CC,
    PAV,
    SAV,
    Committee,
    ScoringFunction,
    WeightFunction,
    ballot_score,
    binary_rule,
    committees_by_mask,
    defeats,
    eval_weight,
    is_winning_committee,
    parse_rule_spec,
    profile_score,
    winning_committees,
)


class _RunsOnFirstRead(types.ModuleType):
    """A registered module whose code runs on the first read of a name it
    does not hold yet. The lock makes a concurrent first read wait for the
    whole module, and the class turns plain once the code has run."""

    _lock = threading.Lock()

    def __getattr__(self, name: str):
        with self._lock:
            if type(self) is _RunsOnFirstRead:
                self.__spec__.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return getattr(self, name)


# reductions serves `abcu gen` and tests only, so it runs on first use;
# the package reads its exported names from it on each access (see
# __getattr__), never keeping a copy.
_spec = importlib.util.find_spec(__name__ + ".reductions")
reductions = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
reductions.__class__ = _RunsOnFirstRead


def __getattr__(name: str):
    if name in __all__:  # the other exported names are bound above
        return getattr(reductions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | set(__all__))


__all__ = [
    "AV",
    "AbcuError",
    "ApprovalBallot",
    "ApprovalProfile",
    "BadEditError",
    "BadKError",
    "BadThresholdError",
    "CC",
    "CandidateInCommitteeError",
    "CandidateRegistry",
    "CapExceededError",
    "Committee",
    "CycleDetectedError",
    "DEFAULT_CAP",
    "Decision",
    "DivisibilityError",
    "EdgeOutsideMiddleError",
    "GadgetOutput",
    "GroupWitness",
    "InputError",
    "ModelClass",
    "ModelMismatchError",
    "NoPolyAlgorithmError",
    "OneInThreeInstance",
    "PAV",
    "PartialBallot",
    "PartialProfile",
    "PartitionIncompleteError",
    "PartitionOverlapError",
    "ProfileSyntaxError",
    "ResourceRefusal",
    "SAV",
    "ScoreDiffReport",
    "ScoringFunction",
    "ShapeMismatchError",
    "TableOutOfRangeError",
    "TooLargeError",
    "TooManyVotersError",
    "UnknownCandidateError",
    "WeightFunction",
    "X3CInstance",
    "as_partial",
    "ballot_score",
    "binary_rule",
    "build_cc_3va",
    "build_linear_x3c",
    "check_axiom",
    "check_axiom_brute",
    "check_ejr",
    "check_jr",
    "check_pjr",
    "classify",
    "committees_by_mask",
    "complete_profile",
    "completions_of_ballot",
    "count_ballot_completions",
    "count_completions",
    "defeats",
    "enumerate_completions",
    "eval_weight",
    "is_completion",
    "is_linearly_ordered",
    "is_three_valued",
    "is_winning_committee",
    "jr_modification_check",
    "make_partial_ballot",
    "max_diff_ballot",
    "max_diff_profile",
    "neccom",
    "necessary_axiom_by_scan",
    "necjr",
    "necmem",
    "necmem_av_3va",
    "necmem_av_linear",
    "necmem_binary_linear",
    "pad_profile",
    "parse_one_in_three",
    "parse_rule_spec",
    "parse_x3c",
    "poscom",
    "poscom_av_3va",
    "poscom_binary_linear",
    "poscom_brute",
    "posjr",
    "posmem",
    "posmem_av_linear",
    "possible_axiom_by_scan",
    "profile_score",
    "solve_one_in_three_brute",
    "solve_x3c_brute",
    "validate_partial_profile",
    "verify_weight_relation",
    "winning_committees",
    # Submodules, bound as attributes above.
    "errors",
    "model",
    "necessary",
    "possible",
    "reductions",
    "representation",
    "rules",
]

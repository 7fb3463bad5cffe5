"""genbound's records are immutable values, and defining them generates no
code at import: importing the CLI loads neither `dataclasses` nor
`inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

import genbound
from genbound.bounds import (
    PROOF_EXACT,
    PROOFS,
    Comparison,
    EmbeddingContribution,
    ExactContribution,
    FormulaContribution,
    certify_embeddings,
)
from genbound.constructions import abelianization_split, coprime_family, metabelian_target
from genbound.homcount import HomCountResult, witness_quotient
from genbound.modules import ModuleAction, find_simple_module
from genbound.presentations import cyclic_presentation
from genbound.subgroups import d_min_generators, derived_subgroup

from helpers import cyclic_perm_group, symmetric_group

C2, C3 = cyclic_presentation(2), cyclic_presentation(3)

# one instance of each record, keyed by its class name
RECORDS = {
    "Comparison": lambda: Comparison(8, 6),
    "ExactContribution": lambda: ExactContribution(121, 60),
    "FormulaContribution": lambda: FormulaContribution(7, 1, 1, 6),
    "EmbeddingContribution": lambda: EmbeddingContribution(5),
    "BoundCertificate": lambda: certify_embeddings(["G1", "G2"], 5),
    "_Proof": lambda: PROOFS[PROOF_EXACT],
    "HomCountResult": lambda: HomCountResult(121, 60),
    "WitnessQuotient": lambda: witness_quotient([C2, C3], symmetric_group(3)),
    "Presentation": lambda: C3,
    "ModuleAction": lambda: ModuleAction(3, 1, (((2,),),), C2),
    "SimpleModuleSearch": lambda: find_simple_module(C2, 3),
    "SubgroupHandle": lambda: derived_subgroup(symmetric_group(3)),
    "MinGenResult": lambda: d_min_generators(symmetric_group(3)),
    "SemidirectTarget": lambda: metabelian_target([2, 3]).target,
    "MetabelianTarget": lambda: metabelian_target([2, 3]),
    "SplitBound": lambda: abelianization_split([cyclic_perm_group(2), cyclic_perm_group(3)]),
    "CoprimeFamilyInstance": lambda: coprime_family(1),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_change(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = type(record)._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown_field = value
    assert getattr(record, field) is value


# (equal inputs, different inputs) of each record compared by value; all
# but HomCountResult and ModuleAction are also hashed by value
VALUES = {
    "Presentation": (lambda: cyclic_presentation(3), lambda: cyclic_presentation(3, "h")),
    "Comparison": (lambda: Comparison(8, 6), lambda: Comparison(8, 6, ">=")),
    "ExactContribution": (lambda: ExactContribution(121, 60), lambda: ExactContribution(121, 61)),
    "FormulaContribution": (
        lambda: FormulaContribution(7, 1, 1, 6), lambda: FormulaContribution(7, 1, 1, 6, 2)
    ),
    "EmbeddingContribution": (lambda: EmbeddingContribution(5), lambda: EmbeddingContribution(6)),
    "HomCountResult": (lambda: HomCountResult(121, 60), lambda: HomCountResult(120, 60)),
    "ModuleAction": (
        lambda: ModuleAction(3, 1, (((2,),),), cyclic_presentation(2)),
        lambda: ModuleAction(5, 1, (((4,),),), cyclic_presentation(2)),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_records_compare_by_value(name):
    make, make_other = VALUES[name]
    first, second, other = make(), make(), make_other()
    assert first is not second
    assert first == second and first != other
    if name not in ("HomCountResult", "ModuleAction"):
        assert hash(first) == hash(second)


def test_cli_import_generates_no_record_code():
    src = Path(genbound.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import genbound.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

"""Mutation test of the rules by which the operators pass facts on.

Four tables are the only sources of those rules: sset._SAME (truncate),
sset._OPPOSITE (opposite), and operators._TOP and _TOP_PROJECTION
(dec_top), from which operators derives dec_bot's _BOT and
_BOT_PROJECTION, reading them through the opposite.  Each fault below
plants one unsound rule in one entry of one table, an output fact taken
from an input fact that does not prove it, and the test asserts that a
remembered-versus-fresh comparison then mismatches: on some set, a
check of what an operator made from the set, once the set's own checks
have proven what they prove, gives what the same check does not give on
a copy that carries no record.  A table with such a fault would let a
remembered check report a family as holding that does not hold.

The sets are taken from tests/sweep_remembered.py's 1,835, four that
together show every fault.  checked_sequence reads an opposite only
twice over, opposite(opposite(X)), on which an _OPPOSITE that does not
swap gives the right facts, and a truncation only of a decalage, through
the Segal checker alone; rule_sequence adds one opposite and every
truncation of X one level down, each through RULE_STEPS.
"""

import dataclasses
from functools import lru_cache

import pytest

from decompspace import criteria, operators, sset
from decompspace.sset import opposite, truncate
from test_properties import one_vertex_generators, sset_from_generators
from test_square_engine import attempt, checked_sequence

#: The checkers through which rule_sequence reads an opposite and a
#: truncation: the Segal, the upper and lower 2-Segal and the
#: decomposition checker, whose squares are those of each fact a set's
#: record can hold.
RULE_STEPS = (
    criteria.check_segal,
    criteria.check_upper_2segal,
    criteria.check_lower_2segal,
    criteria.check_decomposition,
)


def rule_sequence(X, fresh: bool) -> list:
    """checked_sequence on X, then opposite(X) and truncate(X, k) for each
    k below X's level, each through RULE_STEPS; with fresh, each step
    reads a copy that carries no record."""
    copy = dataclasses.replace if fresh else lambda Y: Y
    out = checked_sequence(X, fresh)
    for Y in (opposite(copy(X)), *(truncate(copy(X), k) for k in range(X.level))):
        out += [attempt(step, copy(Y)) for step in RULE_STEPS]
    return out


@lru_cache(maxsize=None)
def sweep_set(k: int, level: int):
    """sweep_remembered's set{k}-L{level}: the k-th one_vertex_generators
    set at the given level, 2 or 3."""
    return truncate(sset_from_generators(list(one_vertex_generators())[k][1], 3), level)


@lru_cache(maxsize=None)
def fresh_sequence(k: int, level: int) -> list:
    """rule_sequence's fresh outcomes on sweep_set(k, level), which read
    no record and so no rule."""
    return rule_sequence(sweep_set(k, level), fresh=True)


#: The tables, by the module that holds them.
TABLES = {"_SAME": sset, "_OPPOSITE": sset, "_TOP": operators, "_TOP_PROJECTION": operators}


def planted(table: dict, entry: str, source: str, output: str) -> dict:
    """table with its rule for entry replaced by the rule that source
    proves output (which also replaces source's own rule, if it has
    one)."""
    return {**{f: t for f, t in table.items() if f != entry}, source: output}


def bot_rules() -> dict:
    """dec_bot's rule tables, by name, derived from the tables as they
    stand, as operators derives them at import."""
    return {
        bot: {sset._OPPOSITE[f]: t for f, t in getattr(operators, top).items()}
        for bot, top in (("_BOT", "_TOP"), ("_BOT_PROJECTION", "_TOP_PROJECTION"))
    }


def plant(monkeypatch, name: str, entry: str, source: str, output: str) -> None:
    """Plant the fault in the named table, then derive dec_bot's rules
    from the tables as planted."""
    module = TABLES[name]
    monkeypatch.setattr(module, name, planted(getattr(module, name), entry, source, output))
    for bot, rules in bot_rules().items():
        monkeypatch.setattr(operators, bot, rules)


#: Each fault: the table, the entry whose rule it replaces, and the rule
#: it plants, source -> output, then the sweep set (k, level) that shows
#: it.  Every entry of every table has one.  A planted rule replaces the
#: source's own rule too; _OPPOSITE's faults each keep every source, as
#: operators reads _OPPOSITE of each source of dec_top's rules.  The four
#: sets are a cover, chosen by running each fault over all 1,835 sweep
#: sets; the number of those that show it follows each fault.
FAULTS = [
    # truncate: a truncation of a validated set is Segal (1,368)
    ("_SAME", "identities", "identities", "segal", (49, 3)),
    # truncate: Segal where X is upper 2-Segal (20)
    ("_SAME", "segal", "upper", "segal", (49, 3)),
    # truncate: unital where X is upper or lower 2-Segal (10 each)
    ("_SAME", "upper", "upper", "unit", (49, 3)),
    ("_SAME", "lower", "lower", "unit", (63, 3)),
    # truncate: Segal where X is unital (4)
    ("_SAME", "unit", "unit", "segal", (47, 3)),
    # the opposite of a validated set is Segal (1,831)
    ("_OPPOSITE", "identities", "identities", "segal", (49, 3)),
    # the opposite is Segal where X is upper 2-Segal (483)
    ("_OPPOSITE", "segal", "upper", "segal", (49, 3)),
    # an opposite that does not swap upper and lower (16 each)
    ("_OPPOSITE", "upper", "upper", "upper", (49, 3)),
    ("_OPPOSITE", "lower", "lower", "lower", (63, 3)),
    # the opposite is lower 2-Segal where X is unital (246)
    ("_OPPOSITE", "unit", "unit", "lower", (4, 2)),
    # Dec_top of a validated set is Segal (1,380)
    ("_TOP", "identities", "identities", "segal", (49, 3)),
    # Dec_top is Segal where X is lower, not upper, 2-Segal (32)
    ("_TOP", "upper", "lower", "segal", (49, 3)),
    # the projection of a validated set has culf face squares (1,380)
    ("_TOP_PROJECTION", "identities", "identities", "face", (49, 3)),
    # the projection's culf face or degeneracy squares from X's upper
    # squares, not its lower or unit ones (32 and 1,378)
    ("_TOP_PROJECTION", "lower", "upper", "face", (49, 3)),
    ("_TOP_PROJECTION", "unit", "upper", "degeneracy", (49, 3)),
]

# The rules that no sweep set shows, measured the same way, and why:
# - "identities" or "naturality" taken from another fact, in _SAME, _TOP
#   or _TOP_PROJECTION: sound, as a record gets a family only once its
#   set's identities walk has held.  (In _OPPOSITE, the same rule shows
#   through the dec_bot rules derived from it.)
# - an upper or lower 2-Segal truncation or Dec_top, from any fact: the
#   sweep's sets have level 2 or 3, so a truncation below X's level, and
#   a decalage, has level 2 at most, where no 2-Segal square exists (each
#   needs X_3).  Level-4 inputs could show them.
# - a rule from "segal": a Segal space is a decomposition space
#   (Galvez-Carrillo, Kock and Tonks, arXiv:1512.07573), so a Segal set
#   holds every family.
# - the projection's face squares from "unit": a record holds "unit"
#   only with "upper" and "lower" (the direct checker at full rank cap)
#   or at level 2, where a projection has no culf face square.
# - an _OPPOSITE without the rule of a source of dec_top's rules: it
#   cannot be planted, as operators reads _OPPOSITE of each at import.


def test_faults_cover_every_entry():
    entries = {(name, entry) for name, entry, *_ in FAULTS}
    assert entries == {
        (name, entry) for name, module in TABLES.items() for entry in getattr(module, name)
    }
    assert len(entries) == len(FAULTS)


def test_committed_rules_match_fresh():
    # dec_bot's rules are derived as plant derives them, and on the
    # committed rules every set gives what its fresh copies give
    assert bot_rules() == {
        "_BOT": operators._BOT, "_BOT_PROJECTION": operators._BOT_PROJECTION
    }
    for key in sorted({shows for *_, shows in FAULTS}):
        X = dataclasses.replace(sweep_set(*key))
        assert rule_sequence(X, fresh=False) == fresh_sequence(*key), key


@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: "-".join(map(str, f[:4])))
def test_planted_fault_shows(fault, monkeypatch):
    *rule, key = fault
    fresh = fresh_sequence(*key)
    plant(monkeypatch, *rule)
    X = dataclasses.replace(sweep_set(*key))
    assert rule_sequence(X, fresh=False) != fresh

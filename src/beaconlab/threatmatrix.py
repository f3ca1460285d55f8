"""Threat matrix: attacks, motives, capabilities, impacts and defences.

The matrix is plain data plus set logic. An attack is *likely* when some
assumed motive points at it and the assumed capability set covers everything
it needs. Defence recommendation intersects the per-attack defence sets;
an empty intersection with a non-empty attack list is the analyst's cue that
no single control covers the situation.

This table is the single source of truth: the attacks module reads required
capabilities from here when gating what a scenario's adversary may do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InvalidInput, SchemaError, UnknownRef, ValidationError
from .model import _build, _fields, _list, _mapping, _names, _parse_document, _text

GOALS = ("C", "I", "A", "P")  # confidentiality, integrity, availability, privacy

TARGET_OWNER = "Owner"
TARGET_USER = "User"

LEVELS = ("H", "M", "L")
PARTIES = ("O", "U")  # infrastructure owner, end user

SKILL_ORDER = {"L": 0, "M": 1, "H": 2}


@dataclass(frozen=True)
class Capability:
    id: str
    description: str = ""
    skill: str = "L"  # L / M / H

    def __post_init__(self) -> None:
        if self.skill not in SKILL_ORDER:
            raise InvalidInput(f"capability {self.id}: skill must be one of L, M, H")


@dataclass(frozen=True)
class Impact:
    description: str
    level: str  # H / M / L
    party: str  # O / U

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise InvalidInput(f"impact {self.description!r}: bad level {self.level!r}")
        if self.party not in PARTIES:
            raise InvalidInput(f"impact {self.description!r}: bad party {self.party!r}")


@dataclass(frozen=True)
class AttackEntry:
    id: str
    name: str
    motives: frozenset[str] = frozenset()
    goals: frozenset[str] = frozenset()
    target: str = TARGET_OWNER
    required_caps: frozenset[str] = frozenset()
    impacts: tuple[Impact, ...] = ()
    defences: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ThreatMatrix:
    attacks: Mapping[str, AttackEntry]
    capabilities: Mapping[str, Capability]
    motives: Mapping[str, str]
    defences: Mapping[str, str]


MOTIVES = {
    "M1": "Free riding on a third party's beacon infrastructure",
    "M2": "Corrupting the ID-to-content mapping of an existing deployment",
    "M3": "Disabling part of an existing deployment",
    "M4": "Tracking user locations and activities",
    "M5": "Exhausting or disabling user devices",
}

CAPABILITIES = {
    "C1": Capability("C1", "Eavesdrop and record broadcast beacon IDs", "L"),
    "C2": Capability("C2", "Rebuild an ID-to-location database", "L"),
    "C3": Capability("C3", "Clone beacons or produce fake advertisers", "M"),
    "C4": Capability("C4", "Read/write access to beacon firmware", "H"),
    "C5": Capability("C5", "Physical access to installed beacons", "H"),
    "C6": Capability("C6", "Install own hardware in the target area", "H"),
    "C7": Capability("C7", "Get a user to install an authorized malicious app", "M"),
}

DEFENCES = {
    "TV": "Time-varying IDs",
    "OD": "Outlier detection",
    "SJ": "Selective jamming",
}

_IMPACT_WRONG_CONTENT = Impact("Wrong content delivered to users", "H", "U")
_IMPACT_UNAVAILABLE = Impact("Service unavailable in affected areas", "H", "U")
_IMPACT_REPUTATION = Impact("Reputational risk to the infrastructure owner", "M", "O")
_IMPACT_CORRECTIVE = Impact("Corrective action required from the infrastructure owner", "H", "O")
_IMPACTS_PROFILING = (
    Impact("Privacy of users breached", "H", "O"),
    Impact("User locations and activities leaked to unauthorized parties", "H", "U"),
)

_ATTACKS = (
    AttackEntry(
        id="A1",
        name="Piggybacking",
        motives=frozenset({"M1"}),
        goals=frozenset({"C"}),
        target=TARGET_OWNER,
        required_caps=frozenset({"C1", "C2", "C7"}),
        impacts=(
            Impact("Limited impact to users", "L", "U"),
            Impact("Loss of revenue to the infrastructure owner", "H", "O"),
        ),
        defences=frozenset({"TV"}),
    ),
    AttackEntry(
        id="A2",
        name="Spoofing",
        motives=frozenset({"M2"}),
        goals=frozenset({"I"}),
        target=TARGET_OWNER,
        required_caps=frozenset({"C1", "C3", "C6"}),
        impacts=(_IMPACT_WRONG_CONTENT, _IMPACT_REPUTATION, _IMPACT_CORRECTIVE),
        defences=frozenset({"TV", "OD"}),
    ),
    AttackEntry(
        id="A3",
        name="Silencing",
        motives=frozenset({"M3"}),
        goals=frozenset({"A"}),
        target=TARGET_OWNER,
        required_caps=frozenset({"C1", "C3", "C6"}),
        impacts=(_IMPACT_UNAVAILABLE, _IMPACT_REPUTATION),
        defences=frozenset({"TV"}),
    ),
    AttackEntry(
        id="A4",
        name="Re-programming",
        motives=frozenset({"M2", "M3"}),
        goals=frozenset({"I", "A"}),
        target=TARGET_OWNER,
        required_caps=frozenset({"C4"}),
        impacts=(
            _IMPACT_WRONG_CONTENT,
            _IMPACT_UNAVAILABLE,
            _IMPACT_REPUTATION,
            _IMPACT_CORRECTIVE,
        ),
        defences=frozenset({"OD"}),
    ),
    AttackEntry(
        id="A5",
        name="Reshuffling",
        motives=frozenset({"M2", "M3"}),
        goals=frozenset({"I", "A"}),
        target=TARGET_OWNER,
        required_caps=frozenset({"C5"}),
        impacts=(
            _IMPACT_WRONG_CONTENT,
            _IMPACT_UNAVAILABLE,
            _IMPACT_REPUTATION,
            _IMPACT_CORRECTIVE,
        ),
        defences=frozenset({"OD"}),
    ),
    AttackEntry(
        id="A6",
        name="User profiling",
        motives=frozenset({"M4"}),
        goals=frozenset({"P"}),
        target=TARGET_USER,
        required_caps=frozenset({"C1", "C2", "C7"}),
        impacts=_IMPACTS_PROFILING,
        defences=frozenset({"TV"}),
    ),
    AttackEntry(
        id="A7",
        name="Presence inference",
        motives=frozenset({"M4"}),
        goals=frozenset({"P"}),
        target=TARGET_USER,
        required_caps=frozenset({"C1", "C2", "C6"}),
        impacts=_IMPACTS_PROFILING,
        defences=frozenset({"TV", "SJ"}),
    ),
    AttackEntry(
        id="A8",
        name="Resource draining",
        motives=frozenset({"M5"}),
        goals=frozenset({"A"}),
        target=TARGET_USER,
        required_caps=frozenset({"C3", "C6"}),
        impacts=(
            Impact("Processing capability of user devices reduced", "M", "U"),
            Impact("Services on user devices unavailable", "H", "U"),
        ),
        defences=frozenset(),
    ),
)


def default_matrix() -> ThreatMatrix:
    """The canonical eight-attack matrix."""
    return ThreatMatrix(
        attacks={a.id: a for a in _ATTACKS},
        capabilities=dict(CAPABILITIES),
        motives=dict(MOTIVES),
        defences=dict(DEFENCES),
    )


def _known(codes: Iterable[str], table: Mapping, what: str) -> frozenset[str]:
    """The codes as a set; UnknownRef for the smallest one table does not hold."""
    given = frozenset(codes)
    for code in sorted(given):
        if code not in table:
            raise UnknownRef(f"unknown {what} {code!r}")
    return given


def _validate_matrix(matrix: ThreatMatrix) -> None:
    if not matrix.attacks:
        raise ValidationError("matrix has no attacks")
    for aid, attack in matrix.attacks.items():
        where = f"attack {aid}"
        if aid != attack.id:
            raise ValidationError(f"{where}: key and id disagree")
        if not attack.motives:
            raise ValidationError(f"{where}: needs at least one motive")
        if not attack.goals:
            raise ValidationError(f"{where}: needs at least one goal")
        if attack.target not in (TARGET_OWNER, TARGET_USER):
            raise ValidationError(f"{where}: target must be Owner or User")
        if not attack.required_caps:
            raise ValidationError(f"{where}: needs at least one required capability")
        if not attack.impacts:
            raise ValidationError(f"{where}: needs at least one impact")
        try:
            _known(attack.motives, matrix.motives, "motive")
            _known(attack.goals, GOALS, "goal")
            _known(attack.required_caps, matrix.capabilities, "capability")
            _known(attack.defences, matrix.defences, "defence")
        except UnknownRef as exc:
            raise ValidationError(f"{where}: {exc}") from exc


def _code(raw, where: str) -> str:
    """A motive, capability or defence code, in upper case, as the command
    line and scenarios read it: `m9` names M9."""
    return _text(raw, where).upper()


def _codes(raw, where: str) -> frozenset[str]:
    return frozenset(_code(item, where) for item in _list(raw, where))


def _by_code(raw, where: str) -> dict[str, object]:
    """A mapping keyed by code; two keys that differ only in case are refused."""
    out = {}
    for key, value in _mapping(raw, where).items():
        code = _code(key, where)
        if code in out:
            raise ValidationError(f"{where}: code {code!r} given twice")
        out[code] = value
    return out


def _texts(raw, where: str) -> dict[str, str]:
    return {code: _text(v, f"{where}: {code}") for code, v in _by_code(raw, where).items()}


_CAPABILITY_READERS = {"description": _text, "skill": _text}


def _capabilities(raw, where: str) -> dict[str, Capability]:
    out = {}
    for cid, entry in _by_code(raw, where).items():
        fields = _fields(entry, f"{where}: {cid}", _CAPABILITY_READERS)
        out[cid] = _build(Capability, f"{where}: {cid}", id=cid, **fields)
    return out


_IMPACT_READERS = {"description": _text, "level": _text, "party": _text}


def _impacts(raw, where: str) -> tuple[Impact, ...]:
    impacts = []
    for j, entry in enumerate(_list(raw, where)):
        fields = _fields(entry, f"{where}[{j}]", _IMPACT_READERS, tuple(_IMPACT_READERS))
        impacts.append(_build(Impact, f"{where}[{j}]", **fields))
    return tuple(impacts)


_ATTACK_READERS = {
    "id": _text, "name": _text, "motives": _codes, "goals": _names, "target": _text,
    "required_caps": _codes, "impacts": _impacts, "defences": _codes,
}
_MATRIX_READERS = {
    "motives": _texts, "capabilities": _capabilities, "defences": _texts, "attacks": _list,
}


def load_matrix(document) -> ThreatMatrix:
    """Parse a matrix override document (same config dialect as scenarios).

    Motives, capabilities and defences default to the canonical vocabulary and
    may be extended; the attacks list replaces the canonical one entirely.
    Their codes are read in upper case, so `m9` and `M9` name one motive.
    """
    doc = _fields(_parse_document(document), "matrix", _MATRIX_READERS)
    if not doc.get("attacks"):
        raise SchemaError("matrix document needs a non-empty 'attacks' list")
    attacks: dict[str, AttackEntry] = {}
    for i, raw in enumerate(doc["attacks"]):
        fields = _fields(raw, f"attacks[{i}]", _ATTACK_READERS, ("id",))
        entry = AttackEntry(**{"name": fields["id"], **fields})
        if entry.id in attacks:
            raise ValidationError(f"duplicate attack id {entry.id!r}")
        attacks[entry.id] = entry
    matrix = ThreatMatrix(
        attacks=attacks,
        capabilities={**CAPABILITIES, **doc.get("capabilities", {})},
        motives={**MOTIVES, **doc.get("motives", {})},
        defences={**DEFENCES, **doc.get("defences", {})},
    )
    _validate_matrix(matrix)
    return matrix


# ---------------------------------------------------------------------------
# set logic


def attacks_for_motives(matrix: ThreatMatrix, motives: Iterable[str]) -> frozenset[str]:
    """Attacks that serve at least one of the assumed motives."""
    wanted = _known(motives, matrix.motives, "motive")
    return frozenset(
        aid for aid, attack in matrix.attacks.items() if attack.motives & wanted
    )


def attacks_for_capabilities(matrix: ThreatMatrix, capabilities: Iterable[str]) -> frozenset[str]:
    """Attacks whose full capability requirement is covered by what is held."""
    held = _known(capabilities, matrix.capabilities, "capability")
    return frozenset(
        aid for aid, attack in matrix.attacks.items() if attack.required_caps <= held
    )


def impact_report(matrix: ThreatMatrix, attacks: Iterable[str]) -> list[tuple[str, Impact]]:
    """Impacts for the given attacks, ordered for reading: by attack id, the
    owner's exposure before the users', and heavier levels first."""
    rows: list[tuple[str, Impact]] = []
    for aid in sorted(_known(attacks, matrix.attacks, "attack")):
        ordered = sorted(
            matrix.attacks[aid].impacts,
            key=lambda imp: (PARTIES.index(imp.party), LEVELS.index(imp.level)),
        )
        rows.extend((aid, imp) for imp in ordered)
    return rows


def recommend_defences(matrix: ThreatMatrix, attacks: Iterable[str]) -> dict:
    """Common defences across the attack set, per-attack sets, and the gaps."""
    wanted = sorted(_known(attacks, matrix.attacks, "attack"))
    if not wanted:
        raise InvalidInput("cannot recommend defences for an empty attack set")
    per_attack: dict[str, tuple[str, ...]] = {}
    common: frozenset[str] | None = None
    uncovered: list[str] = []
    for aid in wanted:
        entry = matrix.attacks[aid]
        per_attack[aid] = tuple(sorted(entry.defences))
        common = entry.defences if common is None else common & entry.defences
        if not entry.defences:
            uncovered.append(aid)
    return {
        "common": tuple(sorted(common or frozenset())),
        "per_attack": per_attack,
        "uncovered": tuple(uncovered),
    }


def skill_profile(matrix: ThreatMatrix, capabilities: Iterable[str]) -> str | None:
    """Highest skill tier among the assumed capabilities; None when no caps."""
    held = _known(capabilities, matrix.capabilities, "capability")
    if not held:
        return None
    return max((matrix.capabilities[c].skill for c in held), key=SKILL_ORDER.__getitem__)


@dataclass(frozen=True)
class AssessmentReport:
    motives: tuple[str, ...]
    capabilities: tuple[str, ...]
    attacks: tuple[AttackEntry, ...]  # the likely ones, by id
    impacts: tuple[tuple[str, Impact], ...]
    defences: Mapping[str, object]
    skill_profile: str | None
    notes: tuple[str, ...] = ()

    @property
    def likely_attacks(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.attacks)

    def to_dict(self) -> dict:
        return {
            "motives": list(self.motives),
            "capabilities": list(self.capabilities),
            "likely_attacks": [
                {"id": a.id, "name": a.name, "goals": sorted(a.goals), "target": a.target}
                for a in self.attacks
            ],
            "impacts": [
                {
                    "attack": aid,
                    "description": imp.description,
                    "level": imp.level,
                    "party": imp.party,
                }
                for aid, imp in self.impacts
            ],
            "defences": {
                "common": list(self.defences.get("common", ())),
                "per_attack": {
                    aid: list(ds) for aid, ds in self.defences.get("per_attack", {}).items()
                },
                "uncovered": list(self.defences.get("uncovered", ())),
            },
            "skill_profile": self.skill_profile,
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        lines = [
            "threat assessment",
            f"  motives:      {', '.join(self.motives) or '(none)'}",
            f"  capabilities: {', '.join(self.capabilities) or '(none)'}",
            f"  skill needed: {self.skill_profile or '-'}",
        ]
        if not self.attacks:
            lines.append("  no feasible attack matches the assumed motives and capabilities")
        else:
            lines.append("  likely attacks:")
            for a in self.attacks:
                goals = "/".join(sorted(a.goals))
                lines.append(f"    {a.id} {a.name} (goal {goals}, target {a.target})")
            lines.append("  impacts:")
            for aid, imp in self.impacts:
                lines.append(f"    {aid}: {imp.description} [{imp.level}, {imp.party}]")
            common = ", ".join(self.defences["common"]) or "(none)"
            lines.append(f"  common defences: {common}")
            for aid, ds in self.defences["per_attack"].items():
                lines.append(f"    {aid}: {', '.join(ds) or '(undefended)'}")
            if self.defences["uncovered"]:
                lines.append(f"  undefended attacks: {', '.join(self.defences['uncovered'])}")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def assess(
    matrix: ThreatMatrix,
    motives: Iterable[str],
    capabilities: Iterable[str],
) -> AssessmentReport:
    """Run the workflow: motive screen, capability screen, impacts, defences."""
    wanted = _known(motives, matrix.motives, "motive")
    held = _known(capabilities, matrix.capabilities, "capability")
    motivated = attacks_for_motives(matrix, wanted)
    capable = attacks_for_capabilities(matrix, held)
    likely = tuple(sorted(motivated & capable))

    notes: list[str] = []
    a6 = matrix.attacks.get("A6")
    if a6 is not None and "A6" in motivated and "A6" not in capable:
        missing = a6.required_caps - held
        if missing == {"C7"}:
            notes.append(
                "A6 excluded only because C7 (authorized malicious app on the "
                "target's device) is not assumed; with C7 it becomes feasible"
            )

    defences: dict = {"common": (), "per_attack": {}, "uncovered": ()}
    impacts: tuple = ()
    if likely:
        defences = recommend_defences(matrix, likely)
        impacts = tuple(impact_report(matrix, likely))
    return AssessmentReport(
        motives=tuple(sorted(wanted)),
        capabilities=tuple(sorted(held)),
        attacks=tuple(matrix.attacks[aid] for aid in likely),
        impacts=impacts,
        defences=defences,
        skill_profile=skill_profile(matrix, held),
        notes=tuple(notes),
    )

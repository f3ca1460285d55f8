import pytest

from beaconlab import (
    InvalidInput,
    UnknownRef,
    ValidationError,
    assess,
    attacks_for_capabilities,
    attacks_for_motives,
    default_matrix,
    impact_report,
    load_matrix,
    recommend_defences,
    skill_profile,
)

MATRIX = default_matrix()

ALL_ATTACKS = frozenset(f"A{i}" for i in range(1, 9))
ALL_CAPS = frozenset(f"C{i}" for i in range(1, 8))

REQUIRED = {
    "A1": {"C1", "C2", "C7"},
    "A2": {"C1", "C3", "C6"},
    "A3": {"C1", "C3", "C6"},
    "A4": {"C4"},
    "A5": {"C5"},
    "A6": {"C1", "C2", "C7"},
    "A7": {"C1", "C2", "C6"},
    "A8": {"C3", "C6"},
}

SKILLS = {"C1": "L", "C2": "L", "C3": "M", "C4": "H", "C5": "H", "C6": "H", "C7": "M"}


class TestCanonicalMatrix:
    def test_attack_ids(self):
        assert set(MATRIX.attacks) == ALL_ATTACKS
        assert sorted(MATRIX.attacks) == sorted(ALL_ATTACKS)

    def test_required_capabilities(self):
        for aid, caps in REQUIRED.items():
            assert MATRIX.attacks[aid].required_caps == frozenset(caps), aid

    def test_capability_skill_tiers(self):
        for cid, skill in SKILLS.items():
            assert MATRIX.capabilities[cid].skill == skill, cid

    def test_defence_coverage(self):
        assert MATRIX.attacks["A1"].defences == {"TV"}
        assert MATRIX.attacks["A2"].defences == {"TV", "OD"}
        assert MATRIX.attacks["A4"].defences == {"OD"}
        assert MATRIX.attacks["A7"].defences == {"TV", "SJ"}
        assert MATRIX.attacks["A8"].defences == frozenset()


class TestScreens:
    def test_motive_screen(self):
        assert attacks_for_motives(MATRIX, {"M4"}) == {"A6", "A7"}
        assert attacks_for_motives(MATRIX, {"M2"}) == {"A2", "A4", "A5"}
        assert attacks_for_motives(MATRIX, {"M2", "M3"}) == {"A2", "A3", "A4", "A5"}
        assert attacks_for_motives(MATRIX, set()) == frozenset()

    def test_capability_screen(self):
        assert attacks_for_capabilities(MATRIX, ALL_CAPS) == ALL_ATTACKS
        assert attacks_for_capabilities(MATRIX, {"C4"}) == {"A4"}
        assert attacks_for_capabilities(MATRIX, {"C1", "C2"}) == frozenset()
        assert attacks_for_capabilities(MATRIX, set()) == frozenset()

    def test_unknown_ids_rejected(self):
        with pytest.raises(UnknownRef):
            attacks_for_motives(MATRIX, {"M9"})
        with pytest.raises(UnknownRef):
            attacks_for_capabilities(MATRIX, {"C0"})

    def test_the_error_names_the_smallest_unknown_code(self):
        # the codes are checked in sorted order, not in the hash order of a set
        unknown = [f"zz{i:02d}" for i in range(30)]
        with pytest.raises(UnknownRef, match="unknown capability 'zz00'"):
            attacks_for_capabilities(MATRIX, ["C1", *reversed(unknown)])
        with pytest.raises(UnknownRef, match="unknown motive 'M0'"):
            attacks_for_motives(MATRIX, ["m2", "M9", "M0", "M2"])

    def test_likely_is_the_intersection(self):
        report = assess(MATRIX, {"M2", "M3"}, {"C1", "C2", "C3", "C6"})
        motivated = attacks_for_motives(MATRIX, {"M2", "M3"})
        feasible = attacks_for_capabilities(MATRIX, {"C1", "C2", "C3", "C6"})
        assert report.likely_attacks == tuple(sorted(motivated & feasible)) == ("A2", "A3")


class TestDefences:
    def test_common_and_per_attack(self):
        rec = recommend_defences(MATRIX, {"A2", "A3"})
        assert rec["common"] == ("TV",)
        assert rec["per_attack"] == {"A2": ("OD", "TV"), "A3": ("TV",)}
        assert rec["uncovered"] == ()

    def test_undefended_attack_surfaces(self):
        rec = recommend_defences(MATRIX, {"A8"})
        assert rec["common"] == ()
        assert rec["uncovered"] == ("A8",)

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidInput):
            recommend_defences(MATRIX, set())
        with pytest.raises(UnknownRef):
            recommend_defences(MATRIX, {"A99"})


class TestImpacts:
    def test_owner_rows_come_first_heaviest_first(self):
        rows = impact_report(MATRIX, {"A2"})
        parties = [imp.party for _, imp in rows]
        assert parties == sorted(parties, key="OU".index)
        owner_levels = [imp.level for _, imp in rows if imp.party == "O"]
        assert owner_levels == sorted(owner_levels, key="HML".index)

    def test_multiple_attacks_grouped_by_id(self):
        rows = impact_report(MATRIX, {"A3", "A1"})
        ids = [aid for aid, _ in rows]
        assert ids == sorted(ids)


class TestSkillProfile:
    def test_tiers(self):
        assert skill_profile(MATRIX, set()) is None
        assert skill_profile(MATRIX, {"C1", "C2"}) == "L"
        assert skill_profile(MATRIX, {"C1", "C7"}) == "M"
        assert skill_profile(MATRIX, {"C2", "C3", "C6"}) == "H"


class TestAssess:
    def test_worked_example(self):
        report = assess(MATRIX, {"M2", "M3"}, {"C1", "C2", "C3", "C6"})
        assert report.likely_attacks == ("A2", "A3")
        assert report.defences["common"] == ("TV",)
        assert report.skill_profile == "H"
        assert "Spoofing" in report.render_text()

    def test_no_feasible_attack(self):
        report = assess(MATRIX, {"M1"}, {"C4"})
        assert report.likely_attacks == ()
        assert report.defences["common"] == ()
        assert "no feasible attack" in report.render_text()

    def test_profiling_note_when_only_the_app_is_missing(self):
        report = assess(MATRIX, {"M4"}, {"C1", "C2", "C6"})
        assert report.likely_attacks == ("A7",)
        assert any("C7" in note for note in report.notes)

    def test_to_dict_is_json_shaped(self):
        import json

        report = assess(MATRIX, {"M2"}, ALL_CAPS)
        doc = json.loads(json.dumps(report.to_dict()))
        assert [a["id"] for a in doc["likely_attacks"]] == ["A2", "A4", "A5"]
        assert doc["defences"]["common"] == ["OD"]


class TestLoadMatrix:
    def test_override_document(self):
        doc = {
            "defences": {"FW": "Firmware signing"},
            "attacks": [
                {
                    "id": "X1",
                    "name": "Test attack",
                    "motives": ["M1"],
                    "goals": ["C"],
                    "target": "Owner",
                    "required_caps": ["C1"],
                    "impacts": [
                        {"description": "something", "level": "L", "party": "U"}
                    ],
                    "defences": ["FW"],
                }
            ],
        }
        matrix = load_matrix(doc)
        assert set(matrix.attacks) == {"X1"}
        assert matrix.defences["FW"] == "Firmware signing"
        assert assess(matrix, {"M1"}, {"C1"}).likely_attacks == ("X1",)

    def test_yaml_text_accepted(self):
        text = """
attacks:
  - id: X1
    motives: [M1]
    goals: [C]
    required_caps: [C1]
    impacts:
      - {description: d, level: L, party: U}
"""
        matrix = load_matrix(text)
        assert "X1" in matrix.attacks

    def test_validation_catches_dangling_refs(self):
        doc = {
            "attacks": [
                {
                    "id": "X1",
                    "motives": ["M99"],
                    "goals": ["C"],
                    "required_caps": ["C1"],
                    "impacts": [{"description": "d", "level": "L", "party": "U"}],
                }
            ]
        }
        with pytest.raises(ValidationError, match="M99"):
            load_matrix(doc)

    def test_override_codes_are_read_in_upper_case(self):
        doc = {
            "motives": {"m9": "testing"},
            "capabilities": {"c8": {"description": "d"}},
            "defences": {"xd": "extra"},
            "attacks": [
                {
                    "id": "X1",
                    "motives": ["m9", "m1"],
                    "goals": ["C"],
                    "required_caps": ["c8"],
                    "impacts": [{"description": "d", "level": "L", "party": "U"}],
                    "defences": ["xd", "tv"],
                }
            ],
        }
        matrix = load_matrix(doc)
        assert "M9" in matrix.motives and "XD" in matrix.defences
        assert matrix.capabilities["C8"].id == "C8"
        entry = matrix.attacks["X1"]
        assert (entry.motives, entry.required_caps, entry.defences) == (
            {"M9", "M1"}, {"C8"}, {"XD", "TV"})

    def test_codes_that_differ_only_in_case_are_refused(self):
        doc = {
            "motives": {"m9": "one", "M9": "two"},
            "attacks": [{"id": "X1", "motives": ["M9"], "goals": ["C"], "required_caps": ["C1"],
                         "impacts": [{"description": "d", "level": "L", "party": "U"}]}],
        }
        with pytest.raises(ValidationError, match="'M9' given twice"):
            load_matrix(doc)

    def test_needs_attacks(self):
        from beaconlab import SchemaError

        with pytest.raises(SchemaError):
            load_matrix({})

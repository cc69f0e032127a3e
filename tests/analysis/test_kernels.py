"""The kernel-table audit: ST504 (the TrackSpec projection) and ST510
(the generated kernels' op set), and where ``repro lint`` runs them."""

import os

from repro.analysis import analyze_target
from repro.analysis.kernels import (
    SHAPE_FIELDS,
    SHAPE_IRRELEVANT_FIELDS,
    audit_spec_fields,
)
from repro.stat4.distributions import enumerate_shapes

HERE = os.path.dirname(__file__)
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src", "repro"))


class TestShapeTable:
    def test_ten_shapes_cover_the_validated_lattice(self):
        keys = [shape.key for shape in enumerate_shapes()]
        assert len(keys) == 10
        assert len(set(keys)) == 10
        # Validation collapses the lattice: trackers require dense
        # frequency slots, percentile alerts require trackers.
        for shape in enumerate_shapes():
            if shape.tracked:
                assert shape.kind.value == "frequency"
            if shape.percentile_alert:
                assert shape.tracked

    def test_package_walk_runs_the_kernel_table_audit(self, monkeypatch):
        # Clean on the live tree; a generated kernel that leaves the op set
        # surfaces as ST510 in a plain lint of the package directory, and
        # a directory that does not define the kernels is not audited.
        diags, resolved = analyze_target(SRC)
        assert resolved
        assert [d for d in diags if d.code in ("ST504", "ST510")] == []

        import repro.stat4.compiled as compiled

        monkeypatch.setattr(
            compiled,
            "reference_sources",
            lambda: {"frequency+alerting": "def kernel(x):\n    return x / 2\n"},
        )
        diags, _ = analyze_target(SRC)
        assert [d.code for d in diags if d.severity.value == "error"] == ["ST510"]
        diags, _ = analyze_target(os.path.join(SRC, "core"))
        assert [d for d in diags if d.code == "ST510"] == []


class TestSpecFieldAudit:
    def test_live_trackspec_is_fully_classified(self):
        assert audit_spec_fields() == []

    def test_unclassified_new_field_fails(self):
        names = list(SHAPE_FIELDS) + list(SHAPE_IRRELEVANT_FIELDS)
        findings = audit_spec_fields(names + ["burst_budget"])
        assert [d.context["field"] for d in findings] == ["burst_budget"]
        assert findings[0].code == "ST504"

    def test_stale_projection_entry_fails(self):
        names = [
            n
            for n in list(SHAPE_FIELDS) + list(SHAPE_IRRELEVANT_FIELDS)
            if n != "cooldown"
        ]
        findings = audit_spec_fields(names)
        assert [d.context["field"] for d in findings] == ["cooldown"]
        assert findings[0].context.get("stale") is True

import pytest

from nashtoric import Cone, IntMatrix, NotPointedError, analyze, reeves_cone
from nashtoric.linalg import dot

from conftest import A1_COLS, A2_COLS, A3_COLS


class TestPaperFixtures:
    def test_a1_hypersurface(self):
        report = analyze(Cone(A1_COLS))
        assert report.hypersurface
        assert report.hilbert_count == 5
        assert not report.simplicial

    def test_a2_cyclic_quotient(self):
        report = analyze(Cone(A2_COLS))
        assert report.simplicial
        assert report.cyclic_quotient
        assert report.invariant_factors == (1, 1, 1, 12)

    def test_a3_gorenstein(self):
        C = Cone(A3_COLS)
        report = analyze(C)
        assert report.simplicial
        assert report.gorenstein
        assert report.gorenstein_witness == (1, 1, 1, 1)
        for ray in C.facet_normals:
            assert dot(report.gorenstein_witness, ray) == 1


class TestGeneral:
    def test_epsilon(self):
        for n in (2, 3, 4):
            report = analyze(Cone(IntMatrix.identity(n)))
            assert report.simplicial
            assert report.index == 1
            assert report.gorenstein
            assert not report.hypersurface
            assert report.unimodular
            assert report.saturated

    def test_reeves_index(self):
        for j in range(1, 10):
            assert analyze(reeves_cone(4, j)).index == j

    def test_witness_contract(self):
        C = Cone([(1, 0), (1, 2)])
        report = analyze(C)
        if report.gorenstein:
            for ray in C.facet_normals:
                assert dot(report.gorenstein_witness, ray) == 1

    def test_factors_divide(self):
        report = analyze(Cone(A2_COLS))
        f = report.invariant_factors
        assert all(b % a == 0 for a, b in zip(f, f[1:]))

    def test_non_simplicial_has_no_index(self):
        report = analyze(Cone(A1_COLS))
        assert report.index is None
        assert report.invariant_factors is None

    def test_rejects_bad_input(self):
        with pytest.raises(NotPointedError):
            analyze(Cone([(1, 0), (-1, 0), (0, 1)]))

    def test_to_dict_roundtrip_types(self):
        d = analyze(Cone(A2_COLS)).to_dict()
        import json

        json.dumps(d)
        assert d["invariant_factors"] == [1, 1, 1, 12]

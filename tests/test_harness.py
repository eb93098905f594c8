import json

import pytest

from rfl import fileio
from rfl.graphs import (
    BipartiteGraph,
    GraphError,
    GraphFamily,
    build_extremal,
    is_extremal_isomorphic,
)
from rfl.harness import (
    CAMPAIGNS,
    ExperimentConfig,
    generate_extremal_variant_family,
    generate_random_bipartite,
    make_rng,
    random_deficiency_spec,
    run_campaign,
)


class TestRandomBipartite:
    def test_prob_one_is_complete(self):
        assert generate_random_bipartite(4, 1.0, 7) == BipartiteGraph.complete(4)

    def test_prob_zero_is_empty(self):
        assert generate_random_bipartite(4, 0.0, 7) == BipartiteGraph.empty(4)

    def test_seed_determinism(self):
        a = generate_random_bipartite(6, 0.37, 123)
        b = generate_random_bipartite(6, 0.37, 123)
        assert a == b
        c = generate_random_bipartite(6, 0.37, 124)
        assert a != c  # overwhelmingly likely for 36 coin flips

    def test_rejects_bad_probability(self):
        with pytest.raises(GraphError):
            generate_random_bipartite(3, 1.5, 0)


class TestExtremalVariantFamily:
    def test_identical_spec_gives_identical_members(self):
        family = generate_extremal_variant_family(4, 2, [(8, (1,))] * 8)
        assert len(set(family.members)) == 1
        assert family[0] == build_extremal(4, 2).relabeled({})

    def test_every_member_is_extremal_copy(self):
        spec = [(8, (1,))] * 4 + [(7, (2,))] * 4
        family = generate_extremal_variant_family(4, 2, spec)
        assert all(is_extremal_isomorphic(g, 4, 2) for g in family.members)

    def test_random_spec_reproducible(self):
        a = generate_extremal_variant_family(4, 2, seed=99)
        b = generate_extremal_variant_family(4, 2, seed=99)
        assert a == b

    def test_random_spec_has_two_distinct(self):
        rng = make_rng(5)
        for _ in range(20):
            spec = random_deficiency_spec(4, 2, rng)
            assert len(set(spec)) >= 2

    def test_rejects_wrong_length(self):
        with pytest.raises(GraphError):
            generate_extremal_variant_family(4, 2, [(8, (1,))] * 7)

    def test_rejects_invalid_entry(self):
        with pytest.raises(GraphError):
            generate_extremal_variant_family(4, 2, [(8, (5,))] * 8)  # 5 is in Y


class TestFileFormats:
    def test_graph_golden_format(self):
        g = BipartiteGraph.from_edges(2, [(1, 3), (2, 4)])
        assert fileio.format_graph(g) == "n 2\n1 3\n2 4\n\n"

    def test_graph_roundtrip(self, tmp_path):
        g = build_extremal(5, 2)
        path = tmp_path / "g.txt"
        fileio.write_graph(path, g)
        assert fileio.read_graph(path) == g

    def test_empty_graph_roundtrip(self, tmp_path):
        g = BipartiteGraph.empty(3)
        path = tmp_path / "g.txt"
        fileio.write_graph(path, g)
        assert fileio.read_graph(path) == g

    def test_family_header_and_roundtrip(self, tmp_path):
        family = generate_extremal_variant_family(4, 2, seed=3)
        path = tmp_path / "fam.txt"
        fileio.write_family(path, family)
        text = path.read_text()
        assert text.startswith("family n=4 k=2\n")
        assert fileio.read_family(path) == family

    def test_edge_order_irrelevant_on_read(self):
        assert fileio.parse_graph("n 2\n2 4\n1 3\n\n") == fileio.parse_graph(
            "n 2\n1 3\n2 4\n\n"
        )

    def test_rejects_garbage(self):
        with pytest.raises(GraphError):
            fileio.parse_graph("m 2\n1 3\n")
        with pytest.raises(GraphError):
            fileio.parse_family("family n=2 k=1\nn 2\n1 3\n")  # one block missing
        with pytest.raises(GraphError):
            fileio.parse_graph("n 2\n1 junk\n")


class TestCampaigns:
    def test_unknown_name_rejected(self):
        with pytest.raises(GraphError):
            run_campaign("nope", ExperimentConfig())

    def test_all_campaigns_smoke(self):
        small = {
            "spectral-consistency": ExperimentConfig(n_range=(4, 6), k_range=(2, 3)),
            "lemma33-grid": ExperimentConfig(n_range=(4, 6), k_range=(2, 3)),
            "shift-properties": ExperimentConfig(seed=7, trials=10, n_range=(2, 5)),
            "extremal-absence": ExperimentConfig(),
            "lemma32-construction": ExperimentConfig(seed=1, trials=8),
            "theorem-sample": ExperimentConfig(seed=2, trials=6),
            "claims-audit": ExperimentConfig(seed=3, trials=4),
        }
        assert set(small) == set(CAMPAIGNS)
        for name, config in small.items():
            report = run_campaign(name, config)
            assert report.failed == 0, f"{name} failed cases"
            assert report.cases

    def test_report_deterministic_modulo_wall_time(self):
        config = ExperimentConfig(seed=11, trials=6, n_range=(2, 5))
        a = run_campaign("shift-properties", config).to_dict()
        b = run_campaign("shift-properties", config).to_dict()
        a["summary"].pop("wall_time_s")
        b["summary"].pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        config = ExperimentConfig(output_path=str(out))
        report = run_campaign("extremal-absence", config)
        payload = json.loads(out.read_text())
        assert payload["campaign"] == "extremal-absence"
        assert payload["summary"]["passed"] == report.passed == 3
        assert payload["summary"]["failed"] == 0
        assert {"nodes", "orbit_skips", "automorphisms"} <= set(payload["cases"][0]["values"])

    @pytest.mark.parametrize(
        "campaign, name",
        [("lemma33-grid", "join_margin"), ("lemma32-construction", "construct_rainbow_factor_extremal")],
    )
    def test_only_library_errors_become_failed_cases(self, monkeypatch, campaign, name):
        import rfl.harness

        config = ExperimentConfig(seed=1, trials=2, n_range=(4, 5), k_range=(2, 2))

        def fail(exc):
            def call(*args, **kwargs):
                raise exc("the computation gave up")

            return call

        monkeypatch.setattr(rfl.harness, name, fail(GraphError))
        report = run_campaign(campaign, config)
        assert report.cases and report.failed == len(report.cases)
        assert all(c["values"]["error"] == "the computation gave up" for c in report.cases)
        monkeypatch.setattr(rfl.harness, name, fail(TypeError))
        with pytest.raises(TypeError):
            run_campaign(campaign, config)

    def test_failing_case_embeds_instance(self, monkeypatch):
        # force a failure by auditing against an unreachable threshold being
        # met vacuously is not possible; instead check the serializer path on
        # a constructed failing case
        from rfl.harness import CampaignReport

        report = CampaignReport(campaign="x", config={})
        report.cases.append(
            {
                "params": {"n": 4},
                "values": {},
                "ok": False,
                "instance": fileio.format_graph(build_extremal(4, 2)),
            }
        )
        payload = json.loads(report.to_json())
        assert "n 4" in payload["cases"][0]["instance"]
        assert payload["summary"]["failed"] == 1


class TestCLI:
    def run(self, *argv):
        from rfl.cli import main

        return main(list(argv))

    def test_build_and_rho_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        assert self.run("build-extremal", "--n", "4", "--k", "2", "--out", str(path)) == 0
        assert self.run("rho", "--in", str(path)) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["method"] == "power-iteration"
        assert abs(report["value"] - 3.502325127302632) < 1e-7

    def test_rho_quotient_requires_matching_graph(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        self.run("build-extremal", "--n", "4", "--k", "2", "--out", str(path))
        assert self.run("rho", "--in", str(path), "--method", "quotient", "--k", "2") == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["method"] == "quotient-closed-form"
        # wrong k: the canonical construction differs from the file
        assert (
            self.run("rho", "--in", str(path), "--method", "quotient", "--k", "3") == 2
        )

    def test_join_graph_via_p(self, tmp_path):
        path = tmp_path / "j.txt"
        self.run("build-extremal", "--n", "4", "--k", "2", "--p", "3", "--out", str(path))
        assert fileio.read_graph(path).edge_count() == 12

    def test_k_factor_command(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        self.run("build-extremal", "--n", "4", "--k", "2", "--out", str(path))
        assert self.run("k-factor", "--in", str(path), "--k", "2") == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out == {"exists": False, "required_flow": 8}

    def test_shift_command_with_trace(self, tmp_path):
        family = GraphFamily(2, 1, (BipartiteGraph.from_edges(2, [(2, 4)]),) * 2)
        src = tmp_path / "fam.txt"
        dst = tmp_path / "out.txt"
        trace = tmp_path / "trace.json"
        fileio.write_family(src, family)
        assert (
            self.run(
                "shift", "--in", str(src), "--out", str(dst), "--trace", str(trace)
            )
            == 0
        )
        shifted = fileio.read_family(dst)
        assert all(g.edge_set() == {(1, 3)} for g in shifted.members)
        steps = json.loads(trace.read_text())
        assert steps[0]["steps"] == [["X", 1, 2], ["Y", 3, 4]]

    def test_find_rainbow_factor_search_and_construct(self, tmp_path, capsys):
        family = generate_extremal_variant_family(4, 2, [(8, (1,))] * 7 + [(8, (2,))])
        src = tmp_path / "fam.txt"
        fileio.write_family(src, family)
        assert self.run("find-rainbow-factor", "--in", str(src), "--both") == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["status"] == "found"
        assert out["construct"]["status"] == "found"
        assert out["search"]["status"] == "found"
        assert len(out["assignment"]) == 8

    def test_find_rainbow_factor_absent(self, tmp_path, capsys):
        family = GraphFamily(4, 2, (build_extremal(4, 2),) * 8)
        src = tmp_path / "fam.txt"
        fileio.write_family(src, family)
        assert self.run("find-rainbow-factor", "--in", str(src)) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["status"] == "absent"

    def test_find_rainbow_factor_reports_orbit_counters(self, tmp_path, capsys):
        # the cyclic Latin square of order 6: no transversal, and its
        # translations make every first-class edge equivalent
        n = 6
        members = tuple(
            BipartiteGraph(n, tuple(sum(1 << y for y in range(n) if (x + y) % n == i) for x in range(n)))
            for i in range(n)
        )
        src = tmp_path / "fam.txt"
        fileio.write_family(src, GraphFamily(n, 1, members))
        outputs = []
        for _ in range(2):
            assert self.run("find-rainbow-factor", "--in", str(src), "--search") == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        search = json.loads(outputs[0].strip().splitlines()[-1])["search"]
        assert search["status"] == "absent"
        assert search["orbit_skips"] > 0 and search["automorphisms"] > 0
        assert set(search) == {"status", "nodes", "orbit_skips", "automorphisms"}

    def test_margin_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert self.run("verify-lemma33", "--kmax", "2", "--nmax", "5", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,k,p,rho_join,rho_B,margin,holds"
        assert len(lines) == 4  # (4,2,3), (5,2,3), (5,2,4)
        assert all(line.endswith("true") for line in lines[1:])

    def test_campaign_command(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = self.run(
            "campaign", "extremal-absence", "--seed", "1", "--out", str(out)
        )
        assert code == 0
        assert json.loads(out.read_text())["summary"]["failed"] == 0

    def test_campaign_that_checks_nothing_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ("campaign", "spectral-consistency", "--n-min", "9", "--n-max", "3")
        assert self.run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no cases" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_theorem_sample_honours_ranges(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ("campaign", "theorem-sample", "--n-min", "6", "--n-max", "6", "--trials", "5")
        assert self.run(*argv, "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["n_range"] == [6, 6]
        cases = payload["cases"]
        assert len(cases) == 5 and payload["summary"]["failed"] == 0
        assert {c["params"]["n"] for c in cases} == {6}
        assert {c["params"]["k"] for c in cases} == {2, 3}  # k = 4 needs n >= 8
        assert sum(c["params"]["identical"] for c in cases) == 1

    def test_missing_file_reports_error(self, capsys):
        assert self.run("rho", "--in", "/nonexistent/g.txt") == 2
        assert "error:" in capsys.readouterr().err

    def test_default_tol_env_override(self, monkeypatch):
        from rfl.spectral import default_tolerance

        monkeypatch.setenv("RFL_DEFAULT_TOL", "1e-6")
        assert default_tolerance() == 1e-6
        monkeypatch.delenv("RFL_DEFAULT_TOL")
        assert default_tolerance() == 1e-10

    def test_malformed_default_tol_exits_2(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "b.txt"
        assert self.run("build-extremal", "--n", "6", "--k", "2", "--out", str(path)) == 0
        monkeypatch.setenv("RFL_DEFAULT_TOL", "abc")
        assert self.run("rho", "--in", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "RFL_DEFAULT_TOL" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command, name, error",
        [
            (("rho", "--in", "{path}"), "spectral_radius", "ConvergenceError"),
            (("verify-lemma33", "--kmax", "2", "--nmax", "5"), "join_margin", "InconsistencyError"),
        ],
    )
    def test_library_runtime_errors_exit_2(self, tmp_path, monkeypatch, capsys, command, name, error):
        import rfl.cli
        import rfl.spectral

        path = tmp_path / "b.txt"
        assert self.run("build-extremal", "--n", "6", "--k", "2", "--out", str(path)) == 0
        exc = getattr(rfl.spectral, error)

        def fail(*args, **kwargs):
            raise exc("the computation gave up")

        monkeypatch.setattr(rfl.cli, name, fail)
        assert self.run(*(arg.format(path=path) for arg in command)) == 2
        assert capsys.readouterr().err == "error: the computation gave up\n"

import dataclasses
import json
import re
from pathlib import Path

import pytest

import rfl
from rfl import fileio
from rfl.graphs import (
    BipartiteGraph,
    ExtremalParams,
    GraphError,
    GraphFamily,
    build_extremal,
    labeled_extremal_copy,
)
from rfl.harness import (
    CAMPAIGNS,
    ExperimentConfig,
    _config_dict,
    generate_extremal_variant_family,
    generate_random_bipartite,
    make_rng,
    random_deficiency_spec,
    run_campaign,
)
from rfl.spectral import quotient_spectral_radius
from tests.oracles import (
    brute_force_rainbow_matching,
    check_lattice_witness,
    cyclic_latin,
    is_extremal_isomorphic,
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


class TestGrow:
    def test_same_draws_as_adding_edges_one_at_a_time(self):
        # one draw per absent edge, in (x, y) order: the stream the
        # campaigns' grown members were drawn from
        from rfl.harness import _grow

        rng, ref_rng = make_rng(4), make_rng(4)
        for g in (build_extremal(5, 2), BipartiteGraph.empty(4), generate_random_bipartite(6, 0.5, 9)):
            for prob in (0.2, 0.3):
                ref = g
                for x in range(1, g.n + 1):
                    for y in range(g.n + 1, 2 * g.n + 1):
                        if not ref.has_edge(x, y) and ref_rng.random() < prob:
                            ref = ref.with_edge(x, y)
                assert _grow(g, prob, rng) == ref
        assert rng.random() == ref_rng.random()


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
            assert json.loads(report.to_json())["summary"]["passed"] == len(report.cases)

    def test_spectral_consistency_requires_closed_form_in_bracket(self, monkeypatch):
        # a power value 1e-9 off the closed form passed the old 1e-7
        # agreement; the case fails once the closed form leaves the bracket
        import rfl.harness
        from rfl.spectral import SpectralReport

        real = rfl.harness.spectral_radius
        config = ExperimentConfig(n_range=(4, 6), k_range=(2, 2))
        report = run_campaign("spectral-consistency", config)
        assert report.failed == 0
        assert all(c["values"]["residual"] < 1e-10 for c in report.cases)
        assert all(
            (c["values"]["method"], c["values"]["iterations"], c["values"]["diff"])
            == ("quotient-closed-form", 0, 0)
            for c in report.cases
        )

        def shifted(g):
            r = real(g)
            return SpectralReport(r.value + 1e-9, r.method, r.iterations, r.residual)

        monkeypatch.setattr(rfl.harness, "spectral_radius", shifted)
        report = run_campaign("spectral-consistency", config)
        assert report.passed == 0 and report.failed == len(report.cases) == 3
        for case in report.cases:
            n, k = case["params"]["n"], case["params"]["k"]
            assert fileio.parse_graph(case["instance"]) == build_extremal(n, k)

    def test_report_deterministic_modulo_wall_time(self):
        config = ExperimentConfig(seed=11, trials=6, n_range=(2, 5))
        a = run_campaign("shift-properties", config).to_dict()
        b = run_campaign("shift-properties", config).to_dict()
        a["summary"].pop("wall_time_s")
        b["summary"].pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("n_range", [(10, 12), (1, 1)])
    def test_shift_properties_outside_its_sizes_checks_nothing(self, n_range):
        # it draws n from the whole range, from 2 up, with no cap: (10, 12)
        # checks graphs of those sizes, and a range with no size of 2 or more
        # is a campaign that checked nothing, not a numpy traceback
        config = ExperimentConfig(seed=3, n_range=n_range, trials=6)
        sizes = set(range(max(2, n_range[0]), n_range[1] + 1))
        if not sizes:
            with pytest.raises(GraphError, match="no cases"):
                run_campaign("shift-properties", config)
            return
        report = run_campaign("shift-properties", config)
        assert len(report.cases) == 6 and report.failed == 0
        assert {c["params"]["n"] for c in report.cases} <= sizes
        assert max(c["params"]["n"] for c in report.cases) > 8

    def test_cases_in_generation_order(self):
        report = run_campaign("shift-properties", ExperimentConfig(trials=12))
        assert [c["params"]["trial"] for c in report.cases] == list(range(12))
        report = run_campaign("lemma33-grid", ExperimentConfig(n_range=(4, 11), k_range=(2, 2)))
        nkp = [tuple(c["params"].values()) for c in report.cases]
        assert nkp == [(n, 2, p) for n in range(4, 12) for p in range(3, n)]

    def test_report_written_to_file(self, tmp_path, capsys):
        # rfl campaign --out writes the report run_campaign returns
        from rfl.cli import main

        out = tmp_path / "report.json"
        assert main(["campaign", "extremal-absence", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("extremal-absence: 9 passed, 0 failed")
        report = run_campaign("extremal-absence", ExperimentConfig())
        payload = json.loads(out.read_text())
        assert payload["cases"] == report.cases
        assert payload["campaign"] == "extremal-absence"
        # every (n, k) of the default grid: 2 <= k <= 4, 2k <= n <= 8
        points = [(c["params"]["n"], c["params"]["k"]) for c in payload["cases"]]
        assert points == [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (6, 3), (7, 3), (8, 3), (8, 4)]
        assert payload["summary"]["passed"] == report.passed == 9
        assert payload["summary"]["failed"] == 0
        assert set(payload["cases"][0]["values"]) == {
            "search_status", "nodes", "orbit_skips", "automorphisms", "flow_cuts", "colourings",
            "witness", "k_factor_exists",
        }

    def test_construction_reports_its_search_counters(self):
        # every second of 40 trials is also searched; its case carries the
        # counters that extremal-absence and theorem-sample report
        report = run_campaign("lemma32-construction", ExperimentConfig(seed=1, trials=40))
        assert report.failed == 0
        searched = [c["values"] for c in report.cases if "search_status" in c["values"]]
        assert len(searched) == 20
        for values in searched:
            assert set(values) == {
                "constructed", "search_status", "nodes", "orbit_skips", "automorphisms",
                "flow_cuts", "colourings", "witness",
            }
            assert values["search_status"] == "found" and values["nodes"] >= 1
            assert values["witness"] is None

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
        # a k-factor in the extremal graph fails every extremal-absence case;
        # each failed case carries what replays it, and a passing case none
        import rfl.harness

        config = ExperimentConfig(seed=5, n_range=(4, 5), k_range=(2, 2))
        replay = {"seed", "config", "instance"}
        report = run_campaign("extremal-absence", config)
        assert report.failed == 0
        assert all(not replay & set(c) for c in report.cases)

        monkeypatch.setattr(rfl.harness, "k_factor_exists", lambda g, k: True)
        payload = json.loads(run_campaign("extremal-absence", config).to_json())
        assert payload["summary"]["failed"] == len(payload["cases"]) == 2
        for case in payload["cases"]:
            assert replay <= set(case)
            assert case["seed"] == 5
            assert case["config"] == payload["config"]
            assert ExperimentConfig(
                **{key: tuple(v) if isinstance(v, list) else v for key, v in case["config"].items()}
            ) == config
            family = fileio.parse_family(case["instance"])
            n, k = case["params"]["n"], case["params"]["k"]
            assert family == GraphFamily(n, k, (build_extremal(n, k),) * (k * n))


class TestCLI:
    def run(self, *argv):
        from rfl.cli import main

        return main(list(argv))

    def test_build_and_rho_roundtrip(self, tmp_path, capsys):
        # B_{4,2} is one block of two Y-twin classes: the closed form; the
        # staircase with rows 1, 3, 7 has three classes and iterates
        path = tmp_path / "b.txt"
        assert self.run("build-extremal", "--n", "4", "--k", "2", "--out", str(path)) == 0
        assert self.run("rho", "--in", str(path)) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["method"] == "quotient-closed-form"
        assert abs(report["value"] - 3.502325127302632) < 1e-7
        path = tmp_path / "s.txt"
        fileio.write_graph(path, BipartiteGraph(3, (0b001, 0b011, 0b111)))
        assert self.run("rho", "--in", str(path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "power-iteration"
        # rho^2 is the largest root of t^3 - 6 t^2 + 5 t - 1
        assert abs(report["value"] - 2.2469796037174663) < 1e-7

    @pytest.mark.parametrize("n", [20])
    def test_rho_quotient_on_labeled_copies(self, tmp_path, capsys, n):
        # above n = 16 spectral_radius reads the closed form off the file's
        # graph: a labeled extremal copy, deficient in X or in Y, prints the
        # extremal graph's bracket bit for bit
        k = 3
        closed = dataclasses.asdict(quotient_spectral_radius(ExtremalParams(n, k)))
        for u, nbrs in [(2, (n + 1, 2 * n)), (2 * n - 1, (1, n))]:
            path = tmp_path / f"copy{u}.txt"
            fileio.write_graph(path, labeled_extremal_copy(n, k, u, nbrs))
            capsys.readouterr()
            assert self.run("rho", "--in", str(path)) == 0
            assert json.loads(capsys.readouterr().out) == closed, u

    @pytest.mark.parametrize("option", ["--k", "--p"])
    def test_rho_takes_no_parameters(self, tmp_path, capsys, option):
        # the graph file alone decides the radius; --k and --p are unknown
        # options, an argparse usage error
        path = tmp_path / "b.txt"
        assert self.run("build-extremal", "--n", "4", "--k", "2", "--out", str(path)) == 0
        with pytest.raises(SystemExit) as exc:
            self.run("rho", "--in", str(path), option, "2")
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

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
        assert self.run("find-rainbow-factor", "--in", str(src), "--construct") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "found" and "search" not in out
        assert len(out["assignment"]) == 8
        assert self.run("find-rainbow-factor", "--in", str(src)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == out["search"]["status"] == "found"
        assert len(out["assignment"]) == 8

    def test_construct_on_a_family_it_does_not_take_exits_2(self, tmp_path, capsys):
        # a cyclic Latin square is no family of labeled extremal copies:
        # the constructor's message on stderr, nothing on stdout
        src = tmp_path / "fam.txt"
        fileio.write_family(src, GraphFamily(4, 1, tuple(cyclic_latin(4))))
        assert self.run("find-rainbow-factor", "--in", str(src), "--construct") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("budget", ["0", "1000000"])
    def test_construct_with_a_budget_exits_2(self, tmp_path, capsys, budget):
        # the constructor runs no search, so a node budget is refused, even
        # on a family it would build and even at the search's default
        src = tmp_path / "fam.txt"
        fileio.write_family(src, generate_extremal_variant_family(4, 2, seed=1))
        args = ("find-rainbow-factor", "--in", str(src), "--construct")
        assert self.run(*args, "--budget", budget) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert self.run(*args) == 0

    def test_find_rainbow_factor_absent(self, tmp_path, capsys):
        family = GraphFamily(4, 2, (build_extremal(4, 2),) * 8)
        src = tmp_path / "fam.txt"
        fileio.write_family(src, family)
        assert self.run("find-rainbow-factor", "--in", str(src)) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["status"] == "absent"

    def search_twice(self, family: GraphFamily, tmp_path, capsys) -> dict:
        """The search entry of find-rainbow-factor, which repeats exactly
        from run to run."""
        src = tmp_path / "fam.txt"
        fileio.write_family(src, family)
        outputs = []
        for _ in range(2):
            assert self.run("find-rainbow-factor", "--in", str(src)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        search = json.loads(outputs[0].strip().splitlines()[-1])["search"]
        assert set(search) == {
            "status", "nodes", "orbit_skips", "automorphisms", "flow_cuts", "colourings",
            "witness",
        }
        return search

    def test_find_rainbow_factor_reports_orbit_counters(self, tmp_path, capsys):
        # the cyclic Latin square of order 6 with one edge orbit added: no
        # transversal, no lattice witness, and translations left to prune
        family = GraphFamily(6, 1, tuple(cyclic_latin(6, [(0, 5, 0)])))
        search = self.search_twice(family, tmp_path, capsys)
        assert search["status"] == "absent" and search["witness"] is None
        assert search["orbit_skips"] > 0 and search["automorphisms"] > 0
        assert brute_force_rainbow_matching(family.members) is None

    def test_find_rainbow_factor_reports_a_witness(self, tmp_path, capsys):
        # the cyclic Latin square of order 6: absent by a parity witness,
        # printed as strings that the oracle checks apart from the library
        family = GraphFamily(6, 1, tuple(cyclic_latin(6)))
        search = self.search_twice(family, tmp_path, capsys)
        assert search["status"] == "absent"
        assert search["orbit_skips"] == search["automorphisms"] == 0
        witness = search["witness"]
        assert check_lattice_witness(family, (witness["x"], witness["y"], witness["members"]))

    def test_margin_grid_that_checks_nothing_exits_2(self, capsys):
        assert self.run("campaign", "lemma33-grid", "--k-max", "1", "--n-max", "5") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "no cases" in captured.err

    def test_margin_grid_reports_an_undecided_case(self, monkeypatch, capsys):
        # a case the library cannot decide is a failed case carrying its
        # error, the others stay
        import rfl.harness
        from rfl.spectral import InconsistencyError

        real = rfl.harness.join_margin

        def fail_at_5_2_4(params):
            if (params.n, params.k, params.p) == (5, 2, 4):
                raise InconsistencyError("the computation gave up")
            return real(params)

        monkeypatch.setattr(rfl.harness, "join_margin", fail_at_5_2_4)
        assert self.run("campaign", "lemma33-grid", "--k-max", "2", "--n-max", "5") == 1
        captured = capsys.readouterr()
        cases = json.loads(captured.out)["cases"]
        nkp = [(c["params"]["n"], c["params"]["k"], c["params"]["p"]) for c in cases]
        assert nkp == [(4, 2, 3), (5, 2, 3), (5, 2, 4)]
        assert [c["ok"] for c in cases] == [True, True, False]
        assert cases[2]["values"] == {"error": "the computation gave up"}
        assert captured.err == ""

    def test_campaign_command(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = self.run(
            "campaign", "extremal-absence", "--seed", "1", "--out", str(out)
        )
        assert code == 0
        assert json.loads(out.read_text())["summary"]["failed"] == 0

    def test_campaign_defaults_are_the_config_defaults(self, capsys):
        # the options take their defaults from ExperimentConfig's fields
        assert self.run("campaign", "spectral-consistency") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"] == _config_dict(ExperimentConfig())

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

    @pytest.mark.parametrize(
        "argv",
        [("rho", "--in", "{path}"), ("campaign", "extremal-absence", "--out", "{report}")],
        ids=["rho", "campaign"],
    )
    def test_tolerance_option_is_gone(self, tmp_path, capsys, argv):
        # the spectral tolerance is rfl.spectral.DEFAULT_TOL; --tol is an
        # unknown option, an argparse usage error
        path, report = tmp_path / "b.txt", tmp_path / "r.json"
        assert self.run("build-extremal", "--n", "6", "--k", "2", "--out", str(path)) == 0
        with pytest.raises(SystemExit) as exc:
            self.run(*(arg.format(path=path, report=report) for arg in argv), "--tol", "1e-6")
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv, removed",
        [
            (("rho", "--in", "{path}", "--method", "quotient"), "--method"),
            (("find-rainbow-factor", "--in", "{path}", "--search"), "--search"),
            (("find-rainbow-factor", "--in", "{path}", "--both"), "--both"),
            (("verify-lemma33", "--kmax", "3", "--nmax", "5"), "verify-lemma33"),
        ],
        ids=["rho-method", "search", "both", "verify-lemma33"],
    )
    def test_removed_options_are_usage_errors(self, tmp_path, capsys, argv, removed):
        # rho prints spectral_radius, which picks its own method; the search
        # is find-rainbow-factor's default; rfl campaign lemma33-grid runs
        # the margin grid.  Each removed path is an argparse usage error.
        path = tmp_path / "b.txt"
        assert self.run("build-extremal", "--n", "6", "--k", "2", "--out", str(path)) == 0
        with pytest.raises(SystemExit) as exc:
            self.run(*(arg.format(path=path) for arg in argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and removed in captured.err

    @pytest.mark.parametrize(
        "command, name, error",
        [
            (("rho", "--in", "{path}"), "spectral_radius", "ConvergenceError"),
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


def test_readme_public_api_lists_all():
    # the README's "Public API" section names each export of rfl once, in
    # its list items (wrapped lines indented), and nothing else
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = [
        name
        for line in section.splitlines()
        if line.startswith(("- ", "  "))
        for name in re.findall(r"`(\w+)`", line)
    ]
    assert sorted(listed) == sorted(rfl.__all__)
    assert len(set(listed)) == len(listed)

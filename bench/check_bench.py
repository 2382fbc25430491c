"""Self-checks of the benchmark itself.

    python3 -m pytest -q bench/check_bench.py

Kept out of the repository's own test run (the file name does not match
``test_*.py``) because it runs lab workloads for about a minute.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, children_of  # noqa: E402


@pytest.fixture
def cli(monkeypatch):
    """The lab, imported afresh, as the runner imports it before every pass."""
    monkeypatch.chdir(run.ROOT)
    (run.ROOT / workloads.OUT_DIR).mkdir(exist_ok=True)
    return run.import_lab()


def _specs(req):
    return [a for a in req.argv if a.startswith(("omega:", "eps:", "eps-conj:"))]


# -- seeded input generator ----------------------------------------------------


def _cost_key(r) -> tuple:
    """The argv with seeded parameters masked: requests of one cost class."""
    if not r.seeded:
        return r.argv

    def mask(arg: str) -> str:
        if arg.startswith(("eps:", "eps-conj:")):
            return "eps*"
        if arg.startswith("--charge="):
            return "--charge=*"
        for prefix in ("omega:", workloads.OUT_DIR, "file:"):
            if arg.startswith(prefix):
                return prefix + "*"
        return arg

    key = [mask(a) for a in r.argv]
    if key[0] == "eval" and workloads.mirror(key[2]) < key[2]:
        key[2] = workloads.mirror(key[2])
    return tuple(key)


def cost_signature(reqs: list) -> list:
    """The cost classes of a request list, in a canonical order.

    Two seeds of one workload have equal signatures: the same commands at
    the same depths and degrees, drawn from the same families.
    """
    return sorted((_cost_key(r), r.repeat) for r in reqs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_differ_but_keep_the_cost_class(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 1) != workloads.generate(name, 2)
    base = cost_signature(workloads.generate(name, workloads.DEFAULT_SEED))
    for seed in range(1, 25):
        assert cost_signature(workloads.generate(name, seed)) == base


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_repeats_are_exactly_the_marked_ones(name):
    # the repeat share the runner reports counts argv seen earlier in a pass
    for seed in range(25):
        reqs = workloads.generate(name, seed)
        marked = sum(r.repeat for r in reqs)
        assert workloads.repeat_count(reqs) == marked
        assert marked == (20 if name == "lab-mix" else 0)


def test_expected_errors_are_checked_by_code(cli):
    reqs = [r for r in workloads.generate("lab-mix", 0) if r.error is not None]
    assert {r.error for r in reqs} == {"domain", "syntax", "arity", "unknown-name"}
    for req in reqs:
        outcome = run.call(cli, req.argv)
        assert run.check(req, outcome, {}) is None, (req.argv, outcome.err)
        wrong = workloads.Request(req.argv, error="pole")
        assert run.check(wrong, outcome, {}) is not None
    ok = run.call(cli, ("vacuum", "--alpha=1"))
    assert run.check(workloads.Request(("vacuum", "--alpha=1"), error="domain"), ok, {}) is not None


def test_import_lab_drops_earlier_modules(cli):
    import kreinosc.scalars as before

    run.import_lab()
    import kreinosc.scalars as after

    assert after is not before


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exponents_stay_in_the_exact_gamma_range(name):
    for seed in range(25):
        for req in workloads.generate(name, seed):
            for spec in _specs(req):
                if spec.startswith("omega:"):
                    lam, mu = (Fraction(x) for x in spec[len("omega:"):].split(","))
                    # one half-odd and one integer exponent: half-odd charge and
                    # half-odd gamma arguments; the integer one stays clear of 0
                    # for the at most 5 ladder steps of any request
                    assert {lam.denominator, mu.denominator} == {1, 2}
                    assert abs(lam if lam.denominator == 1 else mu) >= 6
                else:
                    assert int(spec.split(":")[1]) in workloads.EPS_CONST
            omegas = [s for s in _specs(req) if s.startswith("omega:")]
            if req.pairs == "positive" and len(omegas) == 2:
                (l1, m1), (l2, m2) = [
                    [Fraction(x) for x in s[len("omega:"):].split(",")] for s in omegas
                ]
                assert abs((m1 - l1) - (m2 - l2)) == 1


def test_line_states_stay_in_the_exact_gamma_range():
    for seed in range(25):
        for text in workloads.line_documents(seed).values():
            exps = [Fraction(t["exp"]) for t in json.loads(text)["terms"]]
            # (e_f + e_g + 1) / 2 is a half-integer of at least 1/2
            assert all(e.denominator == 1 and 0 <= e <= 6 for e in exps)


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_requests_succeed_with_their_invariants(cli, seed):
    for name in workloads.WORKLOADS:
        workloads.write_inputs(name, seed)
        for req in workloads.generate(name, seed):
            if req.seeded and not req.repeat:
                outcome = run.call(cli, req.argv)
                assert run.check(req, outcome, {}) is None, (name, req.argv, outcome.err)


def test_golden_digests_cover_the_default_seed():
    golden = run.load_golden()
    for name in workloads.WORKLOADS:
        for req in workloads.generate(name, workloads.DEFAULT_SEED):
            assert run.argv_key(req.argv) in golden


# -- tracer --------------------------------------------------------------------


def _snapshot():
    """Identity of every binding in the lab's modules and classes."""
    out = {}
    for mod in [m for n, m in sys.modules.items() if n == "kreinosc" or n.startswith("kreinosc.")]:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = id(cvalue)
    return out


def _traced_sample():
    """Cheap requests from every workload that report their own counters."""
    reqs = []
    for name in ("dark-pruned", "dark-evaluated"):
        reqs += [r for r in workloads.generate(name, 0) if r.argv[-1] == "2"][:3]
    reqs += [r for r in workloads.generate("lab-mix", 0)
             if r.argv[0] in ("inner", "reduce", "eval", "localize", "spectrum")][:20]
    reqs.append(workloads.Request(("sector", "--preset", "half-zbar", "--depth", "4")))
    reqs.append(workloads.Request(("sector", "--seed", "eps:-2", "--depth", "3")))
    return reqs


def test_traced_run_matches_untraced_and_the_lab_counters(cli):
    reqs = _traced_sample()
    plain = run.run_pass(cli, reqs)
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        import kreinosc.sectors as sectors

        assert hasattr(sectors.apply_2d, "_kreinosc_bench_original")
        traced = run.run_pass(cli, reqs, tracer)
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    assert _snapshot() == before

    assert [o.digest for o in traced] == [o.digest for o in plain]
    assert all(o.rc == 0 for o in traced)

    pairs = nodes = 0
    for req, outcome in zip(reqs, traced):
        doc = json.loads(outcome.out)
        if req.argv[0] == "dark":
            pairs += doc["pairs_checked"]
            nodes += doc["nodes"]["a"] + doc["nodes"]["b"]
        elif req.argv[0] == "sector":
            nodes += len(doc["nodes"])
    under_dark = children_of(tracer, "sectors.dark")
    assert pairs > 0
    assert under_dark["algebra2d.renorm_inner"] == pairs
    assert tracer.counts["sectors.dark.pairs_checked"] == pairs
    assert tracer.counts["sectors.generate.nodes"] == nodes
    assert tracer.calls["cli.request"] == len(reqs)
    assert tracer.calls["scalars.eps_mul"] > 0 and tracer.calls["scalars.graded_add"] > 0


def test_self_time_excludes_child_spans(cli):
    tracer = Tracer()
    tracer.install()
    try:
        run.call(cli, ("dark", "--a", "vacuum", "--b", "vacuum", "--depth", "1", "--degree", "1"))
    finally:
        tracer.uninstall()
    assert tracer.self_s["sectors.dark"] < tracer.busy["sectors.dark"]
    assert tracer.self_s["cli.request"] < tracer.busy["cli.request"]
    total = tracer.busy["cli.request"]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-6)


# -- host speed ----------------------------------------------------------------


class _Spin:
    """A stand-in for the CLI whose requests spin for 0.35 s of wall time."""

    @staticmethod
    def main(argv):
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        return 0


def test_kernel_samples_inside_a_request_are_taken_off_its_latency():
    handler = signal.getsignal(signal.SIGALRM)
    with run.KernelSampler() as sampler:
        outcome = run.call(_Spin, (), sampler)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(outcome.kernels) >= 2
    assert outcome.latency == pytest.approx(0.35 - sum(outcome.kernels), abs=0.02)


def test_scale_is_the_reference_over_the_kernel_around_a_request():
    outcomes = run.run_pass(_Spin, [workloads.Request(("spin",))] * 2)
    for o in outcomes:
        assert o.kernels
        assert 0.2 < o.scale < 5
        assert o.ref_latency == o.latency * o.scale


# -- reporting -----------------------------------------------------------------


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_leaves_ten_requests_beyond():
    for n in (26, 32, 112):
        p = run.tail_percentile(n)
        values = list(range(n))
        beyond = [v for v in values if v > run.percentile(values, p)]
        assert len(beyond) == 10


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lab-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

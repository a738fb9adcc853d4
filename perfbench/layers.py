"""The traced run's layers: where the wrappers go and what they report.

Every wrapper is installed at a call site (the name a caller looks up at
call time), never inside dilqr's source. Each layer is one dilqr module;
its span names carry the module name, and the metric names below are the
ones BENCHMARK.json lists under per_layer.
"""

from __future__ import annotations

import os

from dilqr import cli, envs, evaluation, feedback, ilqr, sysid

from tracer import Tracer, self_times

IDENTIFY_SPANS = ("ilqr.identify_ltv", "feedback.identify_ltv")
CLI_COMMANDS = ("train", "feedback", "eval", "sweep", "jacobian-bench")
SERIALIZE_FUNCTIONS = ("save_trajectory", "save_policy", "load_trajectory", "load_policy")


def _accepted(args, result) -> int:
    return int(result[1])


def _rollouts(args, result) -> tuple[int, int]:
    return result.n_rollouts, result.divergences


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _call_sites():
    """(owner, attribute, span name, measure) for every traced call site."""
    sites = [
        (ilqr, "identify_ltv", "ilqr.identify_ltv", None),
        (feedback, "identify_ltv", "feedback.identify_ltv", None),
        (sysid, "estimate_llscd", "sysid.estimate_llscd", None),
        (cli, "estimate_llscd", "sysid.estimate_llscd", None),
        (cli, "estimate_fd", "sysid.estimate_fd", None),
        (ilqr, "backward_pass", "ilqr.backward_pass", None),
        (ilqr, "forward_pass", "ilqr.forward_pass", _accepted),
        (ilqr, "cost_partials", "costs.cost_partials", None),
        (ilqr, "total_cost", "costs.total_cost", None),
        (feedback, "riccati_gains", "feedback.riccati_gains", None),
        (feedback, "build_policy", "feedback.build_policy", None),
        (cli, "build_policy", "feedback.build_policy", None),
        (evaluation, "monte_carlo_eval", "evaluation.monte_carlo_eval", _rollouts),
        (cli, "monte_carlo_eval", "evaluation.monte_carlo_eval", _rollouts),
        (envs.NoiseModel, "draws", "envs.noise_draws", None),
    ]
    for command in CLI_COMMANDS:
        sites.append((cli, "cmd_" + command.replace("-", "_"), "cli." + command, None))
    for fn in SERIALIZE_FUNCTIONS:
        sites.append((cli, fn, "serialize." + fn, _file_bytes if fn.startswith("save") else None))
    return sites


def originals() -> dict:
    """The current object at every traced site (and the env factories)."""
    out = {(owner, attr): getattr(owner, attr) for owner, attr, _, _ in _call_sites()}
    for owner in (envs, cli):
        out[(owner, "make_env")] = getattr(owner, "make_env")
    return out


def install(tracer: Tracer, workload) -> None:
    """Wrap every call site, and the black-box map of each env the workload uses.

    Envs the workload built itself are swapped on the workload; envs the
    program builds (the CLI) come out of the wrapped make_env factories.
    """
    for owner, attr, name, measure in _call_sites():
        tracer.install_span(owner, attr, name, measure)
    for owner in (envs, cli):
        make = getattr(owner, "make_env")
        tracer.install(owner, "make_env", lambda *a, _make=make, **k: tracer.traced_env(_make(*a, **k)))
    if getattr(workload, "env", None) is not None:
        tracer.install(workload, "env", tracer.traced_env(workload.env))


# (metric name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("envs.step_fn.calls", "count", "lower"),
    ("envs.step_fn.rows", "count", "lower"),
    ("envs.step_fn.rows_per_call", "rows/call", "higher"),
    ("envs.step_fn.self_s", "s", "lower"),
    ("envs.noise_draws.calls", "count", "lower"),
    ("envs.noise_draws.self_s", "s", "lower"),
    ("sysid.identify_ltv.calls", "count", "lower"),
    ("sysid.identify_ltv.s", "s", "lower"),
    ("sysid.step_fn_s", "s", "lower"),
    ("sysid.estimate_llscd.calls", "count", "lower"),
    ("sysid.estimate_llscd.self_s", "s", "lower"),
    ("sysid.estimate_fd.calls", "count", "lower"),
    ("sysid.estimate_fd.self_s", "s", "lower"),
    ("ilqr.iterations", "count", "lower"),
    ("ilqr.backward_pass.calls", "count", "lower"),
    ("ilqr.backward_pass.self_s", "s", "lower"),
    ("ilqr.backward_pass.fail_ratio", "ratio", "lower"),
    ("ilqr.forward_pass.calls", "count", "lower"),
    ("ilqr.forward_pass.self_s", "s", "lower"),
    ("ilqr.forward_pass.accept_ratio", "ratio", "higher"),
    ("ilqr.line_search.step_fn_s", "s", "lower"),
    ("ilqr.eval_count_gap", "count", "lower"),
    ("costs.cost_partials.self_s", "s", "lower"),
    ("costs.total_cost.self_s", "s", "lower"),
    ("feedback.build_policy.s", "s", "lower"),
    ("feedback.riccati_gains.self_s", "s", "lower"),
    ("evaluation.monte_carlo_eval.calls", "count", "lower"),
    ("evaluation.monte_carlo_eval.self_s", "s", "lower"),
    ("evaluation.rollouts", "count", "lower"),
    ("evaluation.divergences", "count", "lower"),
    *((f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS),
    ("serialize.s", "s", "lower"),
    ("serialize.bytes_written", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def pass_metrics(spans, lo: int, hi: int, eval_count: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, whose spans are spans[lo:hi].

    eval_count is the black-box call count the program itself reported
    for the pass (0 when the pass did no training); the gap compares it
    with the step_fn rows counted under ilqr's identify_ltv and
    forward_pass spans.
    """
    self_s = self_times(spans, lo, hi)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    fails: dict[str, int] = {}
    values: dict[str, list] = {}
    # nearest enclosing span of interest, per span (parents precede children)
    tags = (*IDENTIFY_SPANS, "ilqr.forward_pass", "sysid.estimate_llscd", "sysid.estimate_fd")
    site: dict[int, str] = {}
    step_rows_by_site: dict[str, int] = {}
    step_s_by_site: dict[str, float] = {}
    for i in range(lo, hi):
        name, parent, start, end, ok, value = spans[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s[i - lo]
        fails[name] = fails.get(name, 0) + (not ok)
        if value is not None:
            values.setdefault(name, []).append(value)
        outer = site.get(parent, "")
        site[i] = name if name in tags and outer not in IDENTIFY_SPANS else outer
        if name == "envs.step_fn":
            step_rows_by_site[outer] = step_rows_by_site.get(outer, 0) + (value or 0)
            step_s_by_site[outer] = step_s_by_site.get(outer, 0.0) + (end - start)

    def ratio(a, b):
        return a / b if b else 0.0

    rows = sum(values.get("envs.step_fn", ()))
    counted = step_rows_by_site.get("ilqr.identify_ltv", 0) + step_rows_by_site.get(
        "ilqr.forward_pass", 0
    )
    mc = values.get("evaluation.monte_carlo_eval", ())
    return {
        "envs.step_fn.calls": calls.get("envs.step_fn", 0),
        "envs.step_fn.rows": rows,
        "envs.step_fn.rows_per_call": ratio(rows, calls.get("envs.step_fn", 0)),
        "envs.step_fn.self_s": own.get("envs.step_fn", 0.0),
        "envs.noise_draws.calls": calls.get("envs.noise_draws", 0),
        "envs.noise_draws.self_s": own.get("envs.noise_draws", 0.0),
        "sysid.identify_ltv.calls": sum(calls.get(n, 0) for n in IDENTIFY_SPANS),
        "sysid.identify_ltv.s": sum(total.get(n, 0.0) for n in IDENTIFY_SPANS),
        "sysid.step_fn_s": sum(
            step_s_by_site.get(n, 0.0)
            for n in (*IDENTIFY_SPANS, "sysid.estimate_llscd", "sysid.estimate_fd")
        ),
        "sysid.estimate_llscd.calls": calls.get("sysid.estimate_llscd", 0),
        "sysid.estimate_llscd.self_s": own.get("sysid.estimate_llscd", 0.0),
        "sysid.estimate_fd.calls": calls.get("sysid.estimate_fd", 0),
        "sysid.estimate_fd.self_s": own.get("sysid.estimate_fd", 0.0),
        "ilqr.iterations": calls.get("ilqr.identify_ltv", 0),
        "ilqr.backward_pass.calls": calls.get("ilqr.backward_pass", 0),
        "ilqr.backward_pass.self_s": own.get("ilqr.backward_pass", 0.0),
        "ilqr.backward_pass.fail_ratio": ratio(
            fails.get("ilqr.backward_pass", 0), calls.get("ilqr.backward_pass", 0)
        ),
        "ilqr.forward_pass.calls": calls.get("ilqr.forward_pass", 0),
        "ilqr.forward_pass.self_s": own.get("ilqr.forward_pass", 0.0),
        "ilqr.forward_pass.accept_ratio": ratio(
            sum(values.get("ilqr.forward_pass", ())), calls.get("ilqr.forward_pass", 0)
        ),
        "ilqr.line_search.step_fn_s": step_s_by_site.get("ilqr.forward_pass", 0.0),
        "ilqr.eval_count_gap": eval_count - counted,
        "costs.cost_partials.self_s": own.get("costs.cost_partials", 0.0),
        "costs.total_cost.self_s": own.get("costs.total_cost", 0.0),
        "feedback.build_policy.s": total.get("feedback.build_policy", 0.0),
        "feedback.riccati_gains.self_s": own.get("feedback.riccati_gains", 0.0),
        "evaluation.monte_carlo_eval.calls": calls.get("evaluation.monte_carlo_eval", 0),
        "evaluation.monte_carlo_eval.self_s": own.get("evaluation.monte_carlo_eval", 0.0),
        "evaluation.rollouts": sum(m for m, _ in mc),
        "evaluation.divergences": sum(d for _, d in mc),
        **{f"cli.{c}.s": total.get("cli." + c, 0.0) for c in CLI_COMMANDS},
        "serialize.s": sum(total.get("serialize." + f, 0.0) for f in SERIALIZE_FUNCTIONS),
        "serialize.bytes_written": sum(
            sum(values.get("serialize." + f, ())) for f in SERIALIZE_FUNCTIONS
        ),
    }

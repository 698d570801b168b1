"""The settings every sweep and search runs with are constants, not options.

Each public callable below takes only the arguments some caller varies;
a value no caller varies (the radius R = 1, the descent tolerance and
iteration cap, the certify margin, the search anomaly thresholds and grid
cut-off, the 50-digit precision) is a module constant. The searches take every argument after ``n`` by
keyword, so that no old positional call binds to the wrong slot.
"""

import inspect

import pytest

from bonnesen import (FunctionFamily, builtin_families, certify,
                      coupled_gradient_slack, evaluate_exact, falsify, family,
                      grid_scan, highprec, linear_function, minimize_slack,
                      power_gap_function, power_gap_reverse_function, reporting,
                      verification)

#: Parameter names of each callable, "*" where the keyword-only ones begin.
PARAMETERS = {
    minimize_slack: ["entry_or_id", "n", "*", "alpha", "k", "starts", "seed", "kind",
                     "margin"],
    grid_scan: ["entry_or_id", "n", "*", "alpha", "k", "resolution", "kind", "margin"],
    falsify: ["entry_or_id", "n", "*", "alpha", "k", "budget_evals", "seed", "kind"],
    verification.verify_sweep: ["kinds", "n_set", "alpha_set", "k_set", "samples",
                                "seed", "margin", "tolerance_rtol", "extra_entries",
                                "high_precision"],
    verification.certification_grid: ["n_set", "alpha_set", "k_set", "samples", "seed",
                                      "include_probe"],
    certify: ["F", "total", "samples", "seed"],
    verification.search_sweep: ["n_set", "alpha", "k", "seed", "starts", "kinds",
                                "grid_resolution", "margin"],
    # One precision, 50 digits: neither takes a dps.
    evaluate_exact: ["entry_or_id", "polygon", "alpha", "k"],
    highprec.measure_exact: ["kind", "radius", "angles"],
    linear_function: ["n"],
    # A gap function is data: its builder takes no options.
    power_gap_function: ["fam", "n", "alpha"],
    power_gap_reverse_function: ["fam", "n", "alpha", "k"],
    builtin_families: [],
    family: ["name"],
    # A family is data, and the coupled gap reads its direction off f' f''.
    FunctionFamily: ["name", "domain", "f", "f_prime", "f_double_prime", "mu"],
    coupled_gradient_slack: ["fam", "theta", "psi"],
    # The document sets its schema version, timestamp and hash itself.
    reporting.ReportDocument: ["command", "config", "results", "seed", "samples",
                               "precision_mode"],
}


def _names(fn) -> list[str]:
    out = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in out:
            out.append("*")
        out.append(p.name)
    return out


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_parameters(fn):
    assert _names(fn) == PARAMETERS[fn]


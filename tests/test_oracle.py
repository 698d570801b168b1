"""The oracle's frozen constants, recomputed from the oracle's own functions.

Guards against transcription drift: each 12-digit constant in
``tests/oracle.py`` must agree with the 50-digit value it was copied from.
"""

import mpmath as mp
import pytest

import oracle

PROBE = oracle.probe_angles()
REGULAR_TRIANGLE = [mp.pi / 3] * 3


def _tangential(key):
    return lambda: oracle.tangential_summary(PROBE)[key]


def _cyclic(key):
    return lambda: oracle.cyclic_summary(PROBE)[key]


RECOMPUTED = {
    "TAN_PERIMETER": _tangential("L"),
    "TAN_AREA": _tangential("A"),
    "TAN_DEFICIT": _tangential("deficit"),
    "TAN_REGULAR_PERIMETER": _tangential("Lstar"),
    "C35_RHS": lambda: oracle.entry_values("C35", "tangential", PROBE)[1],
    "CYC_PERIMETER": _cyclic("L"),
    "CYC_AREA": _cyclic("A"),
    "CYC_DEFICIT": _cyclic("deficit"),
    "T53_RHS": lambda: oracle.entry_values("T53", "cyclic", PROBE)[1],
    "T52_VALUE": lambda: oracle.entry_values("T52", "cyclic", PROBE)[0],
    "JENSEN_TAN": lambda: oracle.jensen_value("tan", PROBE, mp.pi),
    "JENSEN_SIN": lambda: oracle.jensen_value("sin", PROBE, mp.pi),
    "POWER_GAP_TAN_LHS": lambda: oracle.power_gap_values("tan", PROBE, mp.pi, 1)["lhs"],
    "POWER_GAP_TAN_RHS": lambda: oracle.power_gap_values("tan", PROBE, mp.pi, 1)["rhs"],
    "POWER_GAP_TAN_SLACK": lambda: oracle.power_gap_values("tan", PROBE, mp.pi, 1)["slack"],
    "REVERSE_GAP_TAN_K3_RHS": lambda: oracle.reverse_gap_values("tan", PROBE, mp.pi, 1, 3)["rhs"],
    "REVERSE_GAP_TAN_K3_SLACK":
        lambda: oracle.reverse_gap_values("tan", PROBE, mp.pi, 1, 3)["slack"],
    # sin is case I1 (the inequality is >=, slack = D); cos is case I2
    # (<=, slack = -D).
    "COUPLED_SIN_SLACK": lambda: oracle.coupled_d_value("sin", PROBE, REGULAR_TRIANGLE),
    "COUPLED_COS_SLACK": lambda: -oracle.coupled_d_value("cos", PROBE, REGULAR_TRIANGLE),
}


def test_every_frozen_constant_is_recomputed():
    frozen = {name for name, value in vars(oracle).items()
              if name.isupper() and isinstance(value, float) and name != "SIX_SIGFIG_RTOL"}
    assert frozen == set(RECOMPUTED)


@pytest.mark.parametrize("name", sorted(RECOMPUTED))
def test_frozen_constant_matches_recomputation(name):
    assert oracle.rel_err(getattr(oracle, name), RECOMPUTED[name]()) <= 1e-11

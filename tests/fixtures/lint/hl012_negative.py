"""HL012 fixture: disciplined time units the rule must stay silent on."""

import time


def good_duration(start_sim_s, end_sim_s):
    return end_sim_s - start_sim_s


def generic_bridge(dt_s, deadline_sim_s):
    # Generic seconds are compatible with either clock domain.
    return deadline_sim_s + dt_s


def conversion(ts_s):
    # Multiplication launders units: this is a conversion, not a mix.
    ts_us = ts_s * 1e6
    return ts_us


def elapsed(t0):
    # Unknown operand (t0): absence of knowledge, not a finding.
    return time.perf_counter() - t0


def untyped_binding(raw_window, epoch_ticks):
    # A suffix-less name bound to an unknown value stays unknown.
    window = raw_window
    return window - epoch_ticks


def explicit_rebase(t_wall_s, wall_to_sim):
    # A clock re-base goes through a conversion, not a bare addition.
    t_sim_s = wall_to_sim(t_wall_s)
    return t_sim_s

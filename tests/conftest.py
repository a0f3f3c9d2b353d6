"""Shared fixtures: small dies and prepared problems, built once."""

import dataclasses

import pytest

from repro.runtime import trace
from repro.runtime.config import configure, current_config


@pytest.fixture(autouse=True)
def _isolate_runtime_config():
    """Restore the process-wide runtime config after every test, so a
    test that configures jobs/cache/timeouts/chaos (directly or through
    the CLI) can't leak into its neighbours. A tracer started during
    the test (configure(trace_dir=...) or the CLI flag) is stopped,
    since its sink points into a directory the test owns."""
    config = current_config()
    saved = {f.name: getattr(config, f.name)
             for f in dataclasses.fields(config)}
    tracer_before = trace.active()
    yield
    for name, value in saved.items():
        setattr(config, name, value)
    if trace.active() is not tracer_before:
        trace.stop()
        if tracer_before is not None:
            trace.start(tracer_before.trace_dir, role=tracer_before.role)


@pytest.fixture(scope="module", params=["python"])
def kernel(request):
    """The kernel set a kernel-level test runs on. Each kernel has one
    implementation, the pure-Python one (DESIGN.md §11), so there is a
    single leg; it runs under ``configure(backend="python")``, the call
    the end-to-end benchmark makes, which is accepted and ignored. The
    ``[python]`` id keeps each test's name the same as when a second
    kernel set existed."""
    configure(backend=request.param)
    return request.param

from repro.bench.generator import generate_die
from repro.bench.itc99 import die_profile
from repro.core.config import Scenario
from repro.core.problem import build_problem, tight_clock_for
from repro.dft.scan import stitch_scan_chains
from repro.dft.testview import build_prebond_test_view
from repro.dft.wrapper import dedicated_plan, insert_wrappers
from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import PortKind
from repro.place.placer import place_die


@pytest.fixture(scope="session")
def small_die():
    """b11 die0 (120 gates): generated, placed, scan-stitched."""
    netlist = generate_die(die_profile("b11", 0), seed=2019)
    place_die(netlist)
    stitch_scan_chains(netlist)
    return netlist


@pytest.fixture(scope="session")
def medium_die():
    """b12 die1 (397 gates): generated, placed, scan-stitched."""
    netlist = generate_die(die_profile("b12", 1), seed=2019)
    place_die(netlist)
    stitch_scan_chains(netlist)
    return netlist


@pytest.fixture(scope="session")
def small_problem(small_die):
    return build_problem(small_die, already_prepared=True)


@pytest.fixture(scope="session")
def medium_problem(medium_die):
    return build_problem(medium_die, already_prepared=True)


@pytest.fixture(scope="session")
def medium_scenarios(medium_problem):
    """(area scenario, tight scenario, tight problem) for b12_die1."""
    clock = tight_clock_for(medium_problem)
    return (Scenario.area_optimized(),
            Scenario.performance_optimized(clock.period_ps),
            medium_problem.retime(clock))


@pytest.fixture(scope="session")
def wrapped_small_die(small_die):
    """Small die with dedicated wrappers inserted and restitched."""
    wrapped, report = insert_wrappers(small_die, dedicated_plan(small_die))
    stitch_scan_chains(wrapped, restitch=True)
    return wrapped, report


@pytest.fixture(scope="session")
def small_test_view(wrapped_small_die):
    wrapped, _report = wrapped_small_die
    return build_prebond_test_view(wrapped)


@pytest.fixture()
def tiny_netlist():
    """A hand-built five-gate netlist with one FF and one TSV each way.

    Structure:
        n1 = NAND(a, tsv_in)        n2 = XOR(n1, ff.Q)
        ff.D = n2                   n3 = INV(n2)
        po0 = n3                    tsv_out = n1
    """
    builder = NetlistBuilder("tiny")
    clk = builder.add_clock()
    a = builder.add_input("a")
    tin = builder.add_input("tsv_in0", kind=PortKind.TSV_INBOUND)
    n1 = builder.add_gate("NAND2_X1", [a, tin], name="g_nand")
    ff_q = builder.netlist.add_net("ffq0").name
    n2 = builder.add_gate("XOR2_X1", [n1, ff_q], name="g_xor")
    builder.add_flip_flop(n2, clk, scan=True, name="ff0", q_net=ff_q)
    n3 = builder.add_gate("INV_X1", [n2], name="g_inv")
    builder.add_output("po0", n3)
    builder.add_output("tsv_out0", n1, kind=PortKind.TSV_OUTBOUND)
    return builder.finish()

"""The benchmark's span tracer (perfbench/spans.py) patches library and
command-line functions by the names their callers look up. Every such name
must stay bound, or a traced benchmark run fails, and uninstalling the
tracer must put every original back."""

import polyorbit.cli
import polyorbit.polynomials
import spans


def test_tracer_restores_every_binding_it_patches():
    rows = [(module, attr) for module, attr, _, _ in spans._LIBRARY_PATCHES]
    rows += [(polyorbit.cli, attr) for attr, _, _ in spans._CLI_PATCHES]
    rows.append((polyorbit.polynomials.Polynomial, "evaluate"))
    before = [getattr(target, attr) for target, attr in rows]
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = [getattr(target, attr) for target, attr in rows]
    finally:
        tracer.uninstall()
    assert all(patched is not original for patched, original in zip(during, before))
    assert [getattr(target, attr) for target, attr in rows] == before

"""Self-time arithmetic and the tracer's patching of idikit."""

import itertools

import pytest

import spans


def test_self_time_of_nested_spans():
    #   cli   [0 ............................ 10]
    #   kernel   [1 ......... 5]  [6 ..... 9]
    #   mesh        [2 .. 3]        [7 . 8]
    start = [0.0, 1.0, 2.0, 6.0, 7.0]
    end = [10.0, 5.0, 3.0, 9.0, 8.0]
    parent = [-1, 0, 1, 0, 3]
    layers = ["cli", "kernel", "mesh", "kernel", "mesh"]
    got = spans.self_time_by_layer(start, end, parent, layers)
    assert got == pytest.approx({"cli": 3.0, "kernel": 5.0, "mesh": 2.0})
    assert sum(got.values()) == pytest.approx(10.0)  # self times tile the root


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_tracer_patches_every_namespace_and_restores():
    import idikit.bolza
    import idikit.dynamics
    import idikit.kernel
    original = idikit.kernel.kernel_average_w
    tracer = spans.Tracer(clock=_fake_clock())
    with tracer:
        for mod in (idikit.kernel, idikit.bolza, idikit.dynamics):
            assert mod.kernel_average_w is not original
        assert idikit.bolza.assemble_tensors is idikit.conditions.assemble_tensors
    for mod in (idikit.kernel, idikit.bolza, idikit.dynamics):
        assert mod.kernel_average_w is original
    assert tracer.absent == []


def test_tracer_counts_calls_through_imported_names():
    import idikit.dynamics
    from idikit import catalog
    from idikit.mesh import TimeMesh

    entry = catalog.get("cos_t")
    mesh = TimeMesh.uniform(4, 1.0)
    tracer = spans.Tracer(clock=_fake_clock())
    with tracer:
        traj = idikit.dynamics.simulate(entry.problem, mesh, "min_norm")
        traj.arc()(0.5)  # the __call__ alias of eval is wrapped too
    assert tracer.calls["dynamics.simulate"] == 1
    # simulate reaches kernel_average_w through its own module's binding
    assert tracer.calls["kernel.kernel_average_w"] == 4
    assert tracer.calls["mesh.PiecewiseLinearArc.eval"] == 1
    assert tracer.events["g_points"] > 0
    assert set(tracer.self_times()) >= {"dynamics", "kernel"}
    # a span is recorded only where a call enters another layer
    layer = [tracer.layer_of[i] for i in tracer.name_id]
    assert layer[0] == "dynamics" and tracer.parent[0] == -1
    assert all(layer[i] != layer[p] for i, p in enumerate(tracer.parent) if p >= 0)


def test_missing_wrapped_name_is_absent_not_fatal():
    specs = [("kernel", "idikit.kernel", "no_such_function"),
             ("kernel", "idikit.no_such_module", "f"),
             ("mesh", "idikit.mesh", "TimeMesh.no_such_method"),
             ("kernel", "idikit.kernel", "kernel_average_w")]
    tracer = spans.Tracer(specs=specs)
    with tracer:
        pass
    assert tracer.absent == ["kernel.no_such_function", "no_such_module.f",
                             "mesh.TimeMesh.no_such_method"]
    assert "kernel.average_w_calls" not in spans.absent_metrics(tracer.absent)
    assert spans.absent_metrics(["bolza.solve_Pk"]) == [
        "bolza.iterations", "bolza.trials", "bolza.accept_ratio",
        "bolza.penalty_stages", "bolza.stationary_frac"]

"""Self time on nested spans, and patching layers in and out."""

import types

from spans import REQUEST, Tracer


class FakeClock:
    """A nanosecond clock that only moves when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_on_nested_sync_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(30)

    def middle():
        clock.advance(10)
        leaf_traced()
        clock.advance(5)
        leaf_traced()

    leaf_traced = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("middle", middle)
    outer()
    assert tracer.layers["leaf"].calls == 2
    assert tracer.layers["leaf"].self_ns == 60
    assert tracer.layers["middle"].total_ns == 75
    assert tracer.layers["middle"].self_ns == 15
    assert tracer.self_ns_total() == 75


def test_patch_and_restore_instances_and_modules():
    module = types.SimpleNamespace(function=lambda: "module")

    class Layer:
        def get(self):
            return "class"

    layer = Layer()
    tracer = Tracer(sample_every=1)
    with tracer:
        tracer.patch(module, "function", "mod.function")
        tracer.patch(layer, "get", "layer.get")
        token = REQUEST.set(5)
        assert module.function() == "module"
        assert layer.get() == "class"
        with tracer.scoped():
            tracer.patch(layer, "get", "layer.inner")
            layer.get()
        assert tracer.layers["layer.inner"].calls == 1
        layer.get()
        REQUEST.reset(token)
    assert "get" not in vars(layer)
    assert tracer.layers["layer.get"].calls == 3
    assert tracer.layers["mod.function"].calls == 1
    names = [span[0] for span in tracer.kept]
    assert names.count("layer.get") == 3 and all(span[5] == 5 for span in tracer.kept)

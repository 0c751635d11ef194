"""Unit tests for modules, ports, interfaces and binding."""

import pytest

from repro.kernel import Interface, Module, Port, SimTime, Simulator, Timeout
from repro.kernel.exceptions import BindingError


class DemoInterface(Interface):
    def ping(self):
        raise NotImplementedError


class DemoChannel:
    """Implements DemoInterface structurally (duck typing)."""

    def ping(self):
        return "pong"


class Incomplete:
    pass


class TestInterface:
    def test_required_methods(self):
        assert DemoInterface.required_methods() == ["ping"]

    def test_is_implemented_by_structural_match(self):
        assert DemoInterface.is_implemented_by(DemoChannel())

    def test_is_implemented_by_rejects_incomplete(self):
        assert not DemoInterface.is_implemented_by(Incomplete())

    def test_subclass_instances_always_accepted(self):
        class Direct(DemoInterface):
            def ping(self):
                return 1

        assert DemoInterface.is_implemented_by(Direct())


    def test_incomplete_channel_refused_after_a_complete_one(self):
        # The method list is computed once per class; a later check against
        # a channel missing a method must still fail.
        assert DemoInterface.is_implemented_by(DemoChannel())
        assert not DemoInterface.is_implemented_by(Incomplete())
        with pytest.raises(BindingError):
            Port(DemoInterface, name="p").bind(Incomplete())

    def test_subclass_interface_has_its_own_method_list(self):
        class WiderInterface(DemoInterface):
            def pong(self):
                raise NotImplementedError

        assert DemoInterface.required_methods() == ["ping"]
        assert WiderInterface.required_methods() == ["ping", "pong"]
        assert DemoInterface.required_methods() == ["ping"]
        assert DemoInterface.is_implemented_by(DemoChannel())
        assert not WiderInterface.is_implemented_by(DemoChannel())

    def test_required_methods_returns_a_fresh_list(self):
        DemoInterface.required_methods().append("mutated")
        assert DemoInterface.required_methods() == ["ping"]


class TestPort:
    def test_bind_and_call(self):
        port = Port(DemoInterface, name="p")
        port.bind(DemoChannel())
        assert port.is_bound
        assert port().ping() == "pong"
        assert port.ping() == "pong"  # delegated attribute access

    def test_unbound_access_raises(self):
        port = Port(DemoInterface, name="p")
        with pytest.raises(BindingError):
            port.channel

    def test_double_bind_rejected(self):
        port = Port(DemoInterface, name="p")
        port.bind(DemoChannel())
        with pytest.raises(BindingError):
            port.bind(DemoChannel())

    def test_bind_wrong_type_rejected(self):
        port = Port(DemoInterface, name="p")
        with pytest.raises(BindingError):
            port.bind(Incomplete())

    def test_port_requires_interface_class(self):
        with pytest.raises(TypeError):
            Port(DemoChannel, name="p")


class TestModule:
    def test_hierarchy_and_names(self, sim):
        top = Module(sim, "top")
        child = Module(top, "child")
        grandchild = Module(child, "leaf")
        assert top.name == "top"
        assert child.name == "top.child"
        assert grandchild.name == "top.child.leaf"
        assert child in top.children
        assert grandchild in child.children

    def test_invalid_parent_rejected(self):
        with pytest.raises(TypeError):
            Module("not a parent", "m")

    def test_add_port_and_check_bindings(self, sim):
        module = Module(sim, "m")
        port = module.add_port(DemoInterface, "demo_port")
        with pytest.raises(BindingError):
            module.check_bindings()
        port.bind(DemoChannel())
        module.check_bindings()

    def test_check_bindings_recurses_into_children(self, sim):
        top = Module(sim, "top")
        child = Module(top, "child")
        child.add_port(DemoInterface, "p")
        with pytest.raises(BindingError):
            top.check_bindings()

    def test_add_thread_runs_generator(self, sim):
        module = Module(sim, "m")
        log = []

        def behaviour(argument):
            yield Timeout(SimTime(5))
            log.append(argument)

        process = module.add_thread(behaviour, "value")
        sim.run()
        assert log == ["value"]
        assert process in module.threads
        assert process.name.startswith("m.")

    def test_wait_helper_returns_timeout(self, sim):
        module = Module(sim, "m")
        timeout = module.wait(SimTime(5))
        assert timeout.duration == SimTime(5)

    def test_child_inherits_simulator(self, sim):
        top = Module(sim, "top")
        child = Module(top, "child")
        assert child.sim is sim

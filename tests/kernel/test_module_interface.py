"""Unit tests for modules and interfaces."""

import pytest

from repro.kernel import Channel, Interface, Module


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

    def test_private_methods_are_not_required(self):
        class HelperInterface(Interface):
            def ping(self):
                raise NotImplementedError

            def _helper(self):
                raise NotImplementedError

        assert HelperInterface.required_methods() == ["ping"]
        assert HelperInterface.is_implemented_by(DemoChannel())

    def test_non_callable_attribute_does_not_implement_a_method(self):
        class Attribute:
            ping = 3

        assert not DemoInterface.is_implemented_by(Attribute())

    def test_the_base_interface_requires_nothing(self):
        assert Interface.required_methods() == []
        assert Interface.is_implemented_by(Incomplete())

    def test_channel_implementing_an_interface_by_inheritance(self, sim):
        class DemoBus(Channel, DemoInterface):
            def ping(self):
                return "pong"

        bus = DemoBus(sim, "bus")
        assert DemoInterface.is_implemented_by(bus)
        assert bus.ping() == "pong"


class TestModule:
    def test_hierarchy_and_names(self, sim):
        top = Module(sim, "top")
        child = Module(top, "child")
        grandchild = Module(child, "leaf")
        assert top.name == "top"
        assert child.name == "top.child"
        assert grandchild.name == "top.child.leaf"

    def test_invalid_parent_rejected(self):
        with pytest.raises(TypeError):
            Module("not a parent", "m")

    def test_child_inherits_simulator(self, sim):
        top = Module(sim, "top")
        child = Module(top, "child")
        assert child.sim is sim

    def test_parent_and_basename(self, sim):
        top = Module(sim, "top")
        child = Module(top, "child")
        assert top.parent is None and top.basename == "top"
        assert child.parent is top and child.basename == "child"

    def test_repr_names_the_class_and_the_dotted_name(self, sim):
        child = Module(Module(sim, "top"), "child")
        assert repr(child) == "Module('top.child')"

    def test_channel_is_a_module_under_its_parent(self, sim):
        top = Module(sim, "top")
        bus = Channel(top, "bus")
        assert isinstance(bus, Module)
        assert bus.name == "top.bus" and bus.parent is top and bus.sim is sim
        assert repr(bus) == "Channel('top.bus')"

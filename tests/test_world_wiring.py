"""A world has one kernel and one tracer, and they enter it once.

Clocks are synchronised (paper assumption 1), so every node of a world
runs on the same kernel and reports to the same tracer.  They enter a
world in one place: ``build_network(sim, config, streams, tracer)`` hands
both to the :class:`~repro.net.channel.Channel` it creates, and every
other component reads ``channel.sim`` / ``channel.tracer``, or
``network.sim`` / ``network.tracer``.  A constructor that took its own
``sim`` or ``tracer`` beside the channel it is built on would be one more
way to build a world whose parts disagree.

Two checks: a source scan (an AST walk, in the style of
``tests/test_import_graph.py``) over the model layers' constructors and
module-level builders, and an identity check on built worlds.
"""

import ast
from pathlib import Path

from repro.api.config import ExperimentConfig
from repro.api.requests import QueryRequest
from repro.api.service import MobiQueryService
from repro.faults.plan import FaultPlan, NodeCrash, RadioDegradation
from repro.geometry.vec import Vec2
from repro.mobility.path import PiecewisePath

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
#: the layers whose components are built on a world's channel
LAYERS = ("net", "core", "approx", "faults", "workload")
#: parameters that already carry the world's kernel and tracer (a MAC is
#: on its channel)
WIRED = {"channel", "network", "mac"}
#: the world's own choice, made once
WIRING = {"sim", "tracer"}
#: the world's entry point: the one builder that takes both
ENTRY_POINTS = {"build_network"}


def layer_sources():
    """Source text of every module of the layers built on a channel."""
    return {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for layer in LAYERS
        for path in sorted((SRC / layer).rglob("*.py"))
    }


def _parameters(fn):
    args = fn.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def rewired(source):
    """Constructors and module-level builders in ``source`` that take a
    ``sim`` or ``tracer`` beside a channel, network or MAC."""
    tree = ast.parse(source)
    candidates = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        candidates += [
            n for n in cls.body
            if isinstance(n, ast.FunctionDef) and n.name == "__init__"
        ]
    found = []
    for fn in candidates:
        params = _parameters(fn)
        if fn.name not in ENTRY_POINTS and params & WIRED and params & WIRING:
            found.append(f"{fn.name}({', '.join(sorted(params & WIRING))})")
    return found


def offenders(sources):
    found = {rel: rewired(text) for rel, text in sources.items()}
    return {rel: names for rel, names in found.items() if names}


def test_no_component_takes_its_own_kernel_or_tracer():
    sources = layer_sources()
    assert {"net/channel.py", "core/gateway.py", "faults/injector.py"} <= set(sources)
    assert offenders(sources) == {}


def test_a_second_wiring_point_is_caught():
    sources = layer_sources()
    sources["net/routing.py"] += (
        "\nclass Relay:\n"
        "    def __init__(self, network, tracer=None):\n"
        "        self.tracer = tracer\n"
        "\ndef build_relay(channel, sim):\n"
        "    return Relay(channel)\n"
    )
    assert offenders(sources) == {
        "net/routing.py": ["build_relay(sim)", "__init__(tracer)"]
    }


# ----------------------------------------------------------------------
# Built worlds: every component holds the service's kernel and tracer
# ----------------------------------------------------------------------
def _wired_components(service):
    """``(name, component)`` for every part of the world that keeps a
    kernel or a tracer."""
    network = service.network
    yield "channel", network.channel
    yield "network", network
    for node in network.nodes:
        yield f"node {node.node_id}", node
        yield f"node {node.node_id} mac", node.mac
        if node.sleep_scheduler is not None:
            yield f"node {node.node_id} sleep scheduler", node.sleep_scheduler
            yield f"node {node.node_id} wake wheel", node.sleep_scheduler.wheel
    yield "router", service.geo
    yield "flood", service.flood
    for name in ("protocol", "np_protocol", "fault_injector", "summary_plane"):
        if getattr(service, name) is not None:
            yield name, getattr(service, name)
    for handle in service.handles:
        gateway = handle.gateway
        yield f"{type(gateway).__name__} {handle.user_id}", gateway
        yield f"proxy {handle.user_id}", gateway.proxy
        yield f"proxy {handle.user_id} mac", gateway.proxy.mac


def assert_one_kernel_and_one_tracer(service):
    """Check every component; return the names of the classes seen."""
    world = {"sim": service.sim, "tracer": service.tracer}
    seen = set()
    for name, component in _wired_components(service):
        held = [attr for attr in world if hasattr(component, attr)]
        assert held, f"{name} keeps neither a kernel nor a tracer"
        for attr in held:
            assert getattr(component, attr) is world[attr], f"{name}.{attr}"
        seen.add(type(component).__name__)
    return seen


def _request(accuracy, x):
    return QueryRequest(
        radius_m=80.0,
        period_s=3.0,
        freshness_s=2.0,
        accuracy=accuracy,
        path=PiecewisePath.stationary(Vec2(x, 200.0)),
    )


def test_a_faulted_world_with_exact_and_coarse_sessions_is_one_world():
    plan = FaultPlan(
        crashes=(NodeCrash(node_id=3, at_s=2.0, recover_s=6.0),),
        degradations=(
            RadioDegradation(at_s=1.0, duration_s=2.0, corruption_prob=0.3),
        ),
    )
    service = MobiQueryService(
        ExperimentConfig(mode="jit", seed=4, duration_s=12.0), faults=plan
    )
    exact = service.submit(_request("exact", 150.0))
    coarse = service.submit(_request("coarse", 300.0))
    assert exact.accepted and coarse.accepted
    service.advance(4.0)
    seen = assert_one_kernel_and_one_tracer(service)
    assert {
        "Channel", "Network", "SensorNode", "MacLayer", "SleepScheduler",
        "WakeWheel", "GeoRouter", "FloodManager", "MobiQueryProtocol",
        "FaultInjector", "SummaryPlane", "MobiQueryGateway", "ApproxGateway",
        "MobileEndpoint",
    } <= seen
    service.close()


def test_an_np_world_is_one_world():
    service = MobiQueryService(ExperimentConfig(mode="np", seed=4, duration_s=12.0))
    assert service.submit(_request("exact", 150.0)).accepted
    service.advance(4.0)
    seen = assert_one_kernel_and_one_tracer(service)
    assert {"NoPrefetchProtocol", "NoPrefetchGateway"} <= seen
    service.close()

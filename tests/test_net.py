"""Tests for the network substrate: FL network, routers, mesh, traffic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationTool
from repro.net import (
    MeshNetworkStructural,
    NetMsg,
    NetworkFL,
    NetworkTrafficHarness,
    RouterCL,
    RouterRTL,
    measure_zero_load_latency,
)

NMSGS = 256
DATA_NBITS = 32
NENTRIES = 2


def _fl_network(nrouters=4):
    return NetworkFL(nrouters, NMSGS, DATA_NBITS, NENTRIES).elaborate()


def _mesh(router_type, nrouters=4):
    return MeshNetworkStructural(
        router_type, nrouters, NMSGS, DATA_NBITS, NENTRIES
    ).elaborate()


ALL_NETWORKS = [
    pytest.param(lambda n: _fl_network(n), id="fl"),
    pytest.param(lambda n: _mesh(RouterCL, n), id="cl"),
    pytest.param(lambda n: _mesh(RouterRTL, n), id="rtl"),
]


# -- message type ------------------------------------------------------------


def test_netmsg_fields():
    Msg = NetMsg(16, 256, 32)
    msg = Msg()
    msg.dest = 15
    msg.src = 3
    msg.opaque = 200
    msg.payload = 0xDEADBEEF
    assert int(msg.dest) == 15
    assert int(msg.src) == 3
    assert int(msg.opaque) == 200
    assert int(msg.payload) == 0xDEADBEEF


def test_netmsg_width_scales():
    assert NetMsg(4, 4, 8).nbits == 2 + 2 + 2 + 8
    assert NetMsg(64, 1024, 32).nbits == 6 + 6 + 10 + 32


# -- single-packet delivery ------------------------------------------------------


@pytest.mark.parametrize("factory", ALL_NETWORKS)
def test_single_packet_delivery(factory):
    net = factory(4)
    harness = NetworkTrafficHarness(net)
    latency = harness.send_single(0, 3)
    assert latency >= 1


@pytest.mark.parametrize("factory", ALL_NETWORKS)
def test_all_pairs_delivery_4node(factory):
    net = factory(4)
    harness = NetworkTrafficHarness(net)
    for src in range(4):
        for dest in range(4):
            if src != dest:
                harness.send_single(src, dest)


def test_mesh_latency_scales_with_distance():
    net = _mesh(RouterCL, 16)
    harness = NetworkTrafficHarness(net)
    near = harness.send_single(0, 1)      # one hop
    far = harness.send_single(0, 15)      # 3+3 hops
    assert far > near


def test_fl_network_is_distance_independent():
    net = _fl_network(16)
    harness = NetworkTrafficHarness(net)
    assert harness.send_single(0, 1) == harness.send_single(0, 15)


def test_cl_rtl_routers_agree_on_zero_load_latency():
    """CL and RTL routers implement the same microarchitecture; their
    zero-load latencies should be close."""
    zl_cl = measure_zero_load_latency(_mesh(RouterCL, 9), npairs=10)
    zl_rtl = measure_zero_load_latency(_mesh(RouterRTL, 9), npairs=10)
    assert abs(zl_cl - zl_rtl) <= 2.0


# -- routing policy ------------------------------------------------------------------


def test_xy_routing_policy():
    router = RouterCL(5, 16, NMSGS, DATA_NBITS, NENTRIES)   # center (1,1)
    assert router.route(5) == RouterCL.TERM
    assert router.route(6) == RouterCL.EAST
    assert router.route(4) == RouterCL.WEST
    assert router.route(9) == RouterCL.SOUTH
    assert router.route(1) == RouterCL.NORTH
    # X before Y: dest (2,2) goes EAST first
    assert router.route(10) == RouterCL.EAST


def test_rtl_router_same_routing_as_cl():
    cl = RouterCL(5, 16, NMSGS, DATA_NBITS, NENTRIES)
    rtl = RouterRTL(5, 16, NMSGS, DATA_NBITS, NENTRIES)
    for dest in range(16):
        assert cl.route(dest) == rtl.route(dest)


# -- uniform random traffic: delivery invariants ---------------------------------------


@pytest.mark.parametrize("factory", ALL_NETWORKS)
def test_uniform_random_no_packet_loss(factory):
    net = factory(4)
    harness = NetworkTrafficHarness(net, seed=42)
    stats = harness.run_uniform_random(0.1, ncycles=300)
    assert stats.ejected == stats.injected


@pytest.mark.parametrize("factory", ALL_NETWORKS)
def test_heavy_load_backpressure_no_loss(factory):
    net = factory(4)
    harness = NetworkTrafficHarness(net, seed=7)
    stats = harness.run_uniform_random(0.9, ncycles=200, drain=5000)
    assert stats.ejected == stats.injected


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.02, max_value=0.5))
def test_prop_cl_mesh_conserves_packets(seed, rate):
    net = _mesh(RouterCL, 4)
    harness = NetworkTrafficHarness(net, seed=seed)
    stats = harness.run_uniform_random(rate, ncycles=150, drain=3000)
    assert stats.ejected == stats.injected


def test_latency_increases_with_load():
    def make():
        return _mesh(RouterCL, 9)

    low = NetworkTrafficHarness(make(), seed=1).run_uniform_random(
        0.05, 400, warmup=50)
    high = NetworkTrafficHarness(make(), seed=1).run_uniform_random(
        0.6, 400, warmup=50)
    assert high.avg_latency > low.avg_latency


def test_throughput_saturates():
    """Past saturation, offered load no longer raises throughput."""
    def run(rate):
        harness = NetworkTrafficHarness(_mesh(RouterCL, 9), seed=3)
        return harness.run_uniform_random(rate, 400, warmup=100).throughput

    t_low = run(0.1)
    t_mid = run(0.5)
    t_max = run(0.95)
    assert t_mid > t_low
    assert t_max < 0.95   # cannot deliver full offered load


# -- sim integration ------------------------------------------------------------


def test_mesh_is_structural_level():
    net = _mesh(RouterCL, 4)
    assert net.level() == "struct"
    assert len(net.routers) == 4


def test_mesh_line_trace():
    net = _mesh(RouterCL, 4)
    SimulationTool(net)
    assert "|" in net.line_trace()


# -- arbitration grant holding ------------------------------------------------


@pytest.mark.parametrize("router_cls", [RouterCL, RouterRTL],
                         ids=["cl", "rtl"])
def test_router_holds_stalled_offer(router_cls):
    """Regression (found by the differential cosim harness): while an
    output offer is stalled (val=1, rdy=0) the router must not
    re-arbitrate it away — a competing input with better round-robin
    priority used to replace the offered payload mid-stall, violating
    val/rdy payload stability."""
    router = router_cls(0, 4, NMSGS, DATA_NBITS, NENTRIES).elaborate()
    sim = SimulationTool(router)
    sim.reset()
    pkt_a, pkt_b = 0xAA, 0xBB        # dest=0: both route to TERM

    def put(port, pkt):
        router.in_[port].msg.value = pkt
        router.in_[port].val.value = 1
        for _ in range(10):
            sim.eval_combinational()
            if router.in_[port].rdy.uint():
                break
            sim.cycle()
        else:
            raise AssertionError("input never accepted")
        sim.cycle()
        router.in_[port].val.value = 0

    router.out[0].rdy.value = 0
    put(2, pkt_a)                     # arrives first, via input 2
    for _ in range(10):               # let the offer reach out[0]
        sim.eval_combinational()
        if router.out[0].val.uint():
            break
        sim.cycle()
    else:
        raise AssertionError("offer never appeared")
    assert router.out[0].msg.uint() == pkt_a

    # A competing packet on input 1 (better round-robin priority) must
    # not displace the stalled offer.
    put(1, pkt_b)
    for _ in range(5):
        sim.eval_combinational()
        assert router.out[0].val.uint() == 1
        assert router.out[0].msg.uint() == pkt_a
        sim.cycle()

    # Release the stall: both packets drain, the held offer first.
    router.out[0].rdy.value = 1
    delivered = []
    for _ in range(10):
        sim.eval_combinational()
        if router.out[0].val.uint():
            delivered.append(router.out[0].msg.uint())
        sim.cycle()
        if len(delivered) == 2:
            break
    assert delivered == [pkt_a, pkt_b]


# -- reset ----------------------------------------------------------------------


@pytest.mark.parametrize("router_cls, jit", [
    (RouterCL, False), (RouterCL, True), (RouterRTL, False)],
    ids=["cl", "cl-simjit", "rtl"])
def test_traffic_from_reset_is_a_function_of_the_seed(router_cls, jit):
    """Regression: ``RouterCL`` cleared its FIFOs and grants on reset
    but kept its round-robin pointers, so under contention (rate 0.9)
    a second run on one simulator arbitrated differently from the
    first.  Interpreted and compiled agreed with each other, which is
    why no substrate comparison saw it; ``RouterRTL`` is the control."""
    from repro.core.simjit import SimJITCL

    net = _mesh(router_cls, 16)
    if jit:
        net = SimJITCL(net).specialize().elaborate()
    harness = NetworkTrafficHarness(net, seed=1)
    runs = []
    for _ in range(3):
        harness.rng.seed(1)
        harness.seqnum = 0
        stats = harness.run_uniform_random(0.9, 300, drain=0)
        runs.append((stats.injected, stats.ejected, sum(stats.latencies)))
    assert runs[0][1] > 2000           # saturated: arbitration matters
    assert runs[1] == runs[0] and runs[2] == runs[0], runs

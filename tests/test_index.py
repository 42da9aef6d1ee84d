import contextlib
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import benchpursuit as bp
from benchpursuit import DataMatrix, IndexConfig, ProjectionFrame
from benchpursuit.errors import ConfigError
import benchpursuit._fork as _fork
import benchpursuit.projection_index as projection_index
import benchpursuit.spatial as spatial
from benchpursuit.projection_index import ball_volume, map_to_ball
from benchpursuit.spatial import combined_region

# Oracle-derived value for the square-corners instance below: dense polar
# grid integration (10^6 cells) of the node gap over the disc centered at
# (0.5, 0.5) with radius sqrt(1/2).
SQUARE_CORNERS_INDEX = 1.895654920938231


def _instance(seed=0, n1=20, n2=25, p=2, shift=1.5):
    rng = np.random.default_rng(seed)
    x = DataMatrix(rng.standard_normal((n1, p)) + shift, tuple(f"v{i}" for i in range(p)))
    y = DataMatrix(rng.standard_normal((n2, p)), tuple(f"v{i}" for i in range(p)))
    return x, y


class TestBallVolume:
    def test_interval(self):
        assert ball_volume(1, 3.0) == pytest.approx(6.0)

    def test_disc(self):
        assert ball_volume(2, 2.0) == pytest.approx(4.0 * np.pi)

    def test_solid_sphere(self):
        assert ball_volume(3, 1.0) == pytest.approx(4.0 * np.pi / 3.0)

    def test_beyond_the_largest_float_is_inf(self):
        assert ball_volume(2, 1e200) == np.inf
        assert ball_volume(1, 1e308) == np.inf


class TestMapToBall:
    def test_inside_ball(self, rng):
        pts = map_to_ball(rng.random((500, 2)))
        assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-12

    def test_interval_map_is_affine(self):
        pts = map_to_ball(np.array([[0.0], [0.5], [1.0]]))
        assert np.array_equal(pts[:, 0], [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_volume_preservation_statistics(self, d):
        """The cube-to-ball map should be measure preserving: the fraction of
        mapped points inside the half-radius ball matches the volume ratio,
        and every half-space through the centre holds half the points."""
        from benchpursuit.sobol import SobolStream

        pts = map_to_ball(SobolStream(d).take(4096))
        norms = np.linalg.norm(pts, axis=1)
        assert norms.max() <= 1.0
        assert float((norms <= 0.5).mean()) == pytest.approx(0.5**d, abs=0.01)
        for j in range(d):
            assert float((pts[:, j] > 0.0).mean()) == pytest.approx(0.5, abs=0.01)

    def test_unsupported_dimension(self):
        with pytest.raises(ConfigError, match="ball map implemented for d <= 3, got d=4"):
            map_to_ball(np.zeros((2, 4)))


class TestIndexConfig:
    def test_defaults(self):
        cfg = IndexConfig()
        assert cfg.k == 1.0 and cfg.n_nodes == 50 and cfg.n_nodes_refine == 5000

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexConfig(k=0.0)
        with pytest.raises(ValueError):
            IndexConfig(n_nodes=0)
        with pytest.raises(ValueError):
            IndexConfig(sobol_skip=-1)
        # The nodes after the skip stay within the 2^32 distinct Sobol points.
        IndexConfig(sobol_skip=2**32 - 5000)
        with pytest.raises(ValueError, match="sobol_skip"):
            IndexConfig(sobol_skip=2**32 - 4999)
        with pytest.raises(ValueError, match="sobol_skip"):
            IndexConfig(sobol_skip=2**32 - 9000, n_nodes=9001, n_nodes_refine=10)


class TestIndexValue:
    def test_float_protocol(self):
        x, y = _instance()
        v = bp.index(ProjectionFrame(np.eye(2)), x, y)
        assert float(v) > 0.0
        assert v.n_nodes_used == 50
        assert v.median_converged

    def test_region_attached(self):
        x, y = _instance()
        v = bp.index(ProjectionFrame(np.eye(2)), x, y, IndexConfig(k=2.0))
        assert v.region.multiplier == 2.0


class TestIndexOverflow:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_power_of_two_scale(self, d):
        """Data scaled by 2**300 give the index times 2**(300 d), where the
        squared offsets once overflowed."""
        x, y = _instance(seed=d, p=3)
        f = bp.random_frame(3, d, np.random.default_rng(d))
        big = [DataMatrix(m.values * 2.0**300, m.column_names) for m in (x, y)]
        want = float(bp.index(f, x, y)) * 2.0 ** (300 * d)
        assert float(bp.index(f, *big)) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_ball_beyond_the_largest_float_raises(self, scale):
        x, y = _instance(seed=2)
        big = [DataMatrix(m.values * scale, m.column_names) for m in (x, y)]
        with pytest.raises(bp.DataError, match="integration ball"):
            bp.index(ProjectionFrame(np.eye(2)), *big)

    @pytest.mark.parametrize("scale", [1e-160, 1e-300])
    def test_index_below_the_smallest_normal_float_raises(self, scale):
        x, y = _instance(seed=2)
        tiny = [DataMatrix(m.values * scale, m.column_names) for m in (x, y)]
        with pytest.raises(bp.DataError, match="--standardize"):
            bp.index(ProjectionFrame(np.eye(2)), *tiny)

    def test_identical_tiny_samples_score_exactly_zero(self):
        x, _ = _instance(seed=2)
        tiny = DataMatrix(x.values * 1e-300, x.column_names)
        assert float(bp.index(ProjectionFrame(np.eye(2)), tiny, tiny)) == 0.0

    def test_index_beyond_the_largest_float_raises(self):
        """In d = 1, samples at +-5e307 span a ball of volume 1e308, finite,
        and their SDFs differ by 2 at all nodes but the one on a sample, so
        the index overflows; at +-3e307 it is a finite 1.188e308."""
        f = ProjectionFrame(np.eye(1))

        def far_apart(t):
            return (DataMatrix(np.full((20, 1), t), ("a",)),
                    DataMatrix(np.full((20, 1), -t), ("a",)))

        with pytest.raises(bp.DataError, match="the index is inf on a ball of volume 1e"):
            bp.index(f, *far_apart(5e307))
        assert float(bp.index(f, *far_apart(3e307))) == pytest.approx(1.188e308, rel=1e-3)

    def test_projection_beyond_the_largest_float_raises(self):
        x = DataMatrix([[1.5e308, 1.5e308], [0.0, 1.0]], ("a", "b"))
        f = ProjectionFrame(np.full((2, 1), np.sqrt(0.5)))
        with pytest.raises(bp.DataError, match="points contain NaN or infinite values"):
            bp.index(f, x, x)


class TestIndexProperties:
    def test_identity_is_exactly_zero(self):
        x, _ = _instance()
        assert float(bp.index(ProjectionFrame(np.eye(2)), x, x)) == 0.0

    def test_symmetry_exact(self):
        x, y = _instance()
        f = ProjectionFrame(np.eye(2))
        assert float(bp.index(f, x, y)) == float(bp.index(f, y, x))

    def test_determinism_bit_identical(self):
        x, y = _instance()
        f = bp.random_frame(2, 2, np.random.default_rng(4))
        assert float(bp.index(f, x, y)) == float(bp.index(f, x, y))

    def test_translation_invariance(self):
        """Shifting both samples by the same vector moves the region with
        them and leaves the index unchanged up to roundoff."""
        x, y = _instance()
        f = ProjectionFrame(np.eye(2))
        shift = np.array([13.25, -7.5])
        xs = DataMatrix(x.values + shift, x.column_names)
        ys = DataMatrix(y.values + shift, y.column_names)
        a = float(bp.index(f, x, y))
        b = float(bp.index(f, xs, ys))
        assert abs(a - b) <= 1e-9 * abs(a)

    def test_rotation_invariance_loose(self):
        x, y = _instance(p=4)
        f = bp.random_frame(4, 2, np.random.default_rng(8))
        q, r = np.linalg.qr(np.random.default_rng(9).standard_normal((2, 2)))
        q = q * np.sign(np.diag(r))
        cfg = IndexConfig(n_nodes_refine=5000)
        a = float(bp.refine_index(f, x, y, cfg))
        b = float(bp.refine_index(ProjectionFrame(f.matrix @ q), x, y, cfg))
        assert abs(a - b) / a < 0.02

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_nonnegative(self, seed):
        x, y = _instance(seed=seed, n1=8, n2=9)
        f = ProjectionFrame(np.eye(2))
        assert float(bp.index(f, x, y)) >= 0.0

    def test_skip_changes_nodes(self):
        x, y = _instance()
        f = ProjectionFrame(np.eye(2))
        a = float(bp.index(f, x, y, IndexConfig(sobol_skip=0)))
        b = float(bp.index(f, x, y, IndexConfig(sobol_skip=1)))
        assert a != b


class TestAgainstOracle:
    def test_square_corners_value(self):
        """Two-point samples on opposite edges of the unit square; the
        refined QMC estimate must sit on the dense-grid oracle value."""
        x = DataMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]), ("a", "b"))
        y = DataMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]), ("a", "b"))
        f = ProjectionFrame(np.eye(2))
        refined = float(bp.refine_index(f, x, y, IndexConfig()))
        assert refined == pytest.approx(SQUARE_CORNERS_INDEX, rel=1e-4)
        search = float(bp.index(f, x, y, IndexConfig()))
        assert search == pytest.approx(SQUARE_CORNERS_INDEX, rel=0.02)

    def test_region_is_pooled(self):
        x = DataMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]), ("a", "b"))
        y = DataMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]), ("a", "b"))
        v = bp.index(ProjectionFrame(np.eye(2)), x, y)
        assert np.allclose(v.region.center, [0.5, 0.5])
        assert v.region.base_radius == pytest.approx(np.sqrt(0.5))


class TestRefine:
    def test_uses_refine_node_count(self):
        x, y = _instance()
        f = ProjectionFrame(np.eye(2))
        v = bp.refine_index(f, x, y, IndexConfig(n_nodes_refine=333))
        assert v.n_nodes_used == 333

    def test_explicit_node_count(self):
        x, y = _instance()
        f = ProjectionFrame(np.eye(2))
        cfg = IndexConfig(n_nodes_refine=333)
        v = bp.index(f, x, y, IndexConfig(n_nodes=333))
        assert v.n_nodes_used == 333
        assert v.value == bp.refine_index(f, x, y, cfg).value
        assert v.value != bp.index(f, x, y, cfg).value
        with pytest.raises(ValueError):
            IndexConfig(n_nodes=0)

    def test_refine_tightens(self):
        """Search and refined values approximate the same integral."""
        x, y = _instance()
        f = ProjectionFrame(np.eye(2))
        coarse = float(bp.index(f, x, y))
        fine = float(bp.refine_index(f, x, y))
        assert abs(coarse - fine) / fine < 0.05


def _bits(value: bp.IndexValue) -> str:
    return float(value).hex()


@pytest.fixture
def concurrent(monkeypatch):
    """Every index call takes the two-process path, on any machine."""
    monkeypatch.setattr(projection_index, "_CONCURRENT_PAIRS", 0)
    monkeypatch.setattr(_fork, "cpus", lambda: 2)


def _drop_helper():
    """Close this process's SDF helper, if it has one, and reap it."""
    if projection_index._helper is not None:
        projection_index._helper.close()


def _live_helper():
    """This process's SDF helper if it has a live one, else None."""
    helper = projection_index._helper
    return helper if helper is not None and _fork._live.get(helper.pid) is helper.conn else None


@pytest.fixture
def fresh_helper():
    """The next concurrent call forks a new helper, which sees the test's
    patches; it is closed afterwards."""
    _drop_helper()
    yield
    _drop_helper()


def _child_index(frame, x, y, cfg, want, parents_helper):
    """Runs in a forked child; a mismatch exits non-zero."""
    assert _live_helper() is None, "the child kept its parent's helper"
    assert _bits(bp.refine_index(frame, x, y, cfg)) == want
    assert _live_helper() is not None, "the child used no helper of its own"
    assert _live_helper().pid != parents_helper


def _daemon_index(frame, x, y, want):
    """Runs in a daemonic forked child; a mismatch or a helper exits non-zero."""
    assert _bits(bp.index(frame, x, y)) == want
    assert _live_helper() is None, "a daemonic process forked a helper"


_SIGKILL_PARENT = """
import multiprocessing, os, sys, time
import numpy as np
import benchpursuit as bp
import benchpursuit._fork as fork
import benchpursuit.projection_index as pi
pi._CONCURRENT_PAIRS = 0
fork.cpus = lambda: 2
x = bp.DataMatrix(np.arange(40.0).reshape(20, 2), ("a", "b"))
bp.index(bp.ProjectionFrame(np.eye(2)), x, x)
os.close(int(sys.argv[1]))  # the helper keeps its copy of the pipe's write end
pids = [pi._helper.pid]
if sys.argv[2] == "beside a multiprocessing child":
    sleeper = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    sleeper.start()
    pids.append(sleeper.pid)
print(*pids, flush=True)
time.sleep(60)
"""


class TestConcurrentSdf:
    """index computes the two samples' SDFs in two processes above a size
    gate; the gate, the helper and the halved tiles change no bit."""

    @pytest.mark.parametrize("block", [64, 1 << 16])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gate_changes_no_bit(self, monkeypatch, d, block):
        """Gate at 0 and at infinity give the same bits for index and
        refine_index; a small block makes the halved tiles differ."""
        monkeypatch.setattr(spatial, "_BLOCK_ELEMS", block)
        monkeypatch.setattr(_fork, "cpus", lambda: 2)
        x, y = _instance(seed=d, n1=37, n2=53, p=4)
        f = bp.random_frame(4, d, np.random.default_rng(d))
        cfg = IndexConfig(n_nodes=50, n_nodes_refine=700)
        got = {}
        for gate in (0, float("inf")):
            monkeypatch.setattr(projection_index, "_CONCURRENT_PAIRS", gate)
            got[gate] = [_bits(bp.index(f, x, y, cfg)), _bits(bp.refine_index(f, x, y, cfg))]
        assert got[0] == got[float("inf")]

    def test_symmetry_exact_unequal_sizes(self, concurrent):
        """The helper gets x in one argument order and y in the other."""
        x, y = _instance(seed=5, n1=30, n2=45, p=3)
        f = bp.random_frame(3, 2, np.random.default_rng(5))
        cfg = IndexConfig(n_nodes_refine=900)
        assert _bits(bp.index(f, x, y, cfg)) == _bits(bp.index(f, y, x, cfg))
        assert _bits(bp.refine_index(f, x, y, cfg)) == _bits(bp.refine_index(f, y, x, cfg))

    def test_import_starts_no_thread(self):
        """Importing the package starts no thread and no process, and leaves
        multiprocessing unimported."""
        code = (
            "import os, sys, threading, benchpursuit, benchpursuit.projection_index as pi; "
            "assert threading.active_count() == 1, threading.enumerate(); "
            "assert pi._helper is None; "
            "assert 'multiprocessing' not in sys.modules; "
            "pid = None\n"
            "try: pid = os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError: pass\n"
            "assert pid is None, pid"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_concurrent_call_starts_no_thread(self, concurrent):
        before = threading.active_count()
        x, y = _instance(seed=4)
        bp.index(ProjectionFrame(np.eye(2)), x, y)
        assert _live_helper() is not None
        assert threading.active_count() == before

    def test_one_cpu_never_forks(self, monkeypatch):
        """A 1-CPU affinity never asks for the helper, nor forks."""
        def no_helper(*args, **kwargs):
            raise AssertionError("helper asked for on one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(_fork, "Child", no_helper)
        monkeypatch.setattr(os, "fork", no_helper)
        monkeypatch.setattr(projection_index, "_CONCURRENT_PAIRS", 0)
        x, y = _instance()
        v = bp.index(ProjectionFrame(np.eye(2)), x, y)
        monkeypatch.setattr(projection_index, "_CONCURRENT_PAIRS", float("inf"))
        assert _bits(v) == _bits(bp.index(ProjectionFrame(np.eye(2)), x, y))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_daemonic_caller_computes_serially(self, concurrent):
        x, y = _instance(seed=6)
        f = ProjectionFrame(np.eye(2))
        want = _bits(bp.index(f, x, y))
        child = multiprocessing.get_context("fork").Process(
            target=_daemon_index, args=(f, x, y, want), daemon=True
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive()
        assert child.exitcode == 0

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_exception_from_either_call_surfaces(self, monkeypatch, concurrent, fresh_helper,
                                                 failing):
        """An error in the helper reaches the caller with its class and
        message. Either way the helper's reply is collected, so the helper
        is kept: the next call, which sends it the other sample, gives the
        serial bits."""
        real = spatial.estimate_sdf_batch
        parent = os.getpid()
        armed = [True]

        def flaky(sample, targets):
            in_helper = os.getpid() != parent
            if failing == "worker" and in_helper and len(sample) == 20:
                raise RuntimeError("worker failed on 20 points")
            if failing == "caller" and not in_helper and armed[0]:
                raise RuntimeError("caller failed")
            return real(sample, targets)

        monkeypatch.setattr(projection_index, "estimate_sdf_batch", flaky)
        x, y = _instance()  # 20 and 25 rows
        f = ProjectionFrame(np.eye(2))
        message = "worker failed on 20 points" if failing == "worker" else "caller failed"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            bp.index(f, x, y)
        armed[0] = False
        helper = _live_helper()
        got = bp.index(f, y, x)
        assert _live_helper() is helper is not None
        monkeypatch.setattr(projection_index, "_CONCURRENT_PAIRS", float("inf"))
        assert _bits(got) == _bits(bp.index(f, x, y))

    def test_threads_share_the_helper(self, monkeypatch, concurrent):
        """More callers than cores, switching often, sharing the one helper."""
        rng = np.random.default_rng(11)
        f = ProjectionFrame(np.eye(2))
        jobs = [_instance(seed=int(s), n1=40 + k, n2=60 - k)
                for k, s in enumerate(rng.integers(0, 10_000, 4))]
        monkeypatch.setattr(projection_index, "_CONCURRENT_PAIRS", float("inf"))
        want = [_bits(bp.index(f, x, y)) for x, y in jobs]
        monkeypatch.setattr(projection_index, "_CONCURRENT_PAIRS", 0)
        results = [None] * len(jobs)

        def work(k):
            x, y = jobs[k]
            results[k] = [_bits(bp.index(f, x, y)) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [[w] * 20 for w in want]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_helper(self, concurrent):
        x, y = _instance(seed=3, n1=50, n2=70)
        f = ProjectionFrame(np.eye(2))
        cfg = IndexConfig(n_nodes_refine=600)
        want = _bits(bp.refine_index(f, x, y, cfg))
        assert _live_helper() is not None
        child = multiprocessing.get_context("fork").Process(
            target=_child_index, args=(f, x, y, cfg, want, _live_helper().pid)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("index hung in a forked child")
        assert child.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_helper_exits_with_a_sigkilled_parent(self):
        """The helper holds the write end of a pipe that only it keeps open,
        so the read end reaches EOF once the helper has exited. It exits
        also when the parent has started a fork-context multiprocessing
        child that is still asleep, since that child keeps no copy of the
        helper's pipe."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for case in ("alone", "beside a multiprocessing child"):
            read_end, write_end = os.pipe()
            parent = subprocess.Popen(
                [sys.executable, "-c", _SIGKILL_PARENT, str(write_end), case], env=env,
                stdout=subprocess.PIPE, text=True, pass_fds=(write_end,)
            )
            os.close(write_end)
            pids = []
            try:
                pids = [int(pid) for pid in parent.stdout.readline().split()]
                assert pids[0] not in (0, parent.pid)
                parent.kill()
                parent.wait(timeout=10)
                os.set_blocking(read_end, True)
                ready, _, _ = select.select([read_end], [], [], 10)
                assert ready, f"the helper ({case}) outlived its SIGKILLed parent by 10 s"
                assert os.read(read_end, 1) == b""
            finally:
                parent.kill()
                parent.wait(timeout=10)
                parent.stdout.close()
                os.close(read_end)
                for pid in pids[1:]:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)

    def test_two_tiles_share_one_tiles_memory(self, monkeypatch):
        """One concurrent call on 20 000 x 2 against 20 000 x 2 points at
        2 000 nodes: from the end of the region stage, whose spatial median
        has temporaries of its own, the caller's traced peak (the
        projections, nodes, results, the pickled request and its one tile)
        stays under 4 MB."""
        monkeypatch.setattr(_fork, "cpus", lambda: 2)
        real_region = projection_index.combined_region

        def region_then_reset(*args, **kwargs):
            out = real_region(*args, **kwargs)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(projection_index, "combined_region", region_then_reset)
        rng = np.random.default_rng(2)
        x = DataMatrix(rng.standard_normal((20_000, 2)), ("a", "b"))
        y = DataMatrix(rng.standard_normal((20_000, 2)) + 0.5, ("a", "b"))
        f = ProjectionFrame(np.eye(2))
        assert 20_000 * 2_000 >= projection_index._CONCURRENT_PAIRS
        projection_index._unit_ball_nodes(2, 0, 2_000)  # cached nodes, as in a search
        tracemalloc.start()
        try:
            bp.index(f, x, y, IndexConfig(n_nodes=2_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _live_helper() is not None
        assert peak < 4 * 2**20

import json
import math
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from loop2mesh.errors import ConfigError, InputError
from loop2mesh.net import (
    NetworkParams,
    backward,
    forward,
    gradient,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

from oracles import fd_grad_flat, params_to_vector, vector_to_params


def tiny_loop(rng, n=3) -> np.ndarray:
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])[:n]
    return base + rng.normal(scale=0.05, size=(n, 2))


def loop_batch(loops) -> np.ndarray:
    # the network input: one row per loop, interleaved x0, y0, x1, y1, ...
    return np.stack([loop.reshape(-1) for loop in loops])


def tiny_batch(rng, n=3) -> np.ndarray:
    return loop_batch([tiny_loop(rng, n)])


# ----------------------------------------------------------- initialisation

class TestInitParams:
    def test_shapes(self):
        p = init_params(0, loop_size=35, h1=256, h2=512, n_points=400)
        assert p.w1.shape == (256, 70)
        assert p.b1.shape == (256,)
        assert p.w2.shape == (512, 256)
        assert p.w3.shape == (800, 512)
        assert p.b3.shape == (800,)
        assert (p.loop_size, p.n_points) == (35, 400)

    def test_biases_zero(self):
        p = init_params(3, 5, 8, 8, 7)
        assert not p.b1.any() and not p.b2.any() and not p.b3.any()

    def test_uniform_bounds_per_layer(self):
        p = init_params(1, loop_size=35, h1=256, h2=512, n_points=400)
        for w, fan_in, fan_out in [(p.w1, 70, 256), (p.w2, 256, 512), (p.w3, 512, 800)]:
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() < bound
            assert np.abs(w).max() > 0.95 * bound  # draws fill the interval
            assert abs(w.mean()) < 0.05 * bound

    def test_seed_determinism(self):
        a = init_params(7, 4, 6, 6, 5)
        b = init_params(7, 4, 6, 6, 5)
        c = init_params(8, 4, 6, 6, 5)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)
        assert not np.array_equal(a.w1, c.w1)

    def test_sequential_draw_order_w1_first(self):
        # widening a later layer must not disturb earlier draws
        a = init_params(5, 4, 6, 8, 5)
        b = init_params(5, 4, 6, 16, 5)
        assert np.array_equal(a.w1, b.w1)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(InputError):
            init_params(0, 0, 4, 4, 5)


class TestNetworkParamsValidation:
    def test_inconsistent_shapes_rejected(self):
        p = init_params(0, 3, 4, 4, 5)
        with pytest.raises(ConfigError):
            NetworkParams(p.w1, p.b1, p.w2, np.zeros(5), p.w3, p.b3)

    def test_odd_widths_rejected(self):
        with pytest.raises(ConfigError):
            NetworkParams(np.zeros((4, 7)), np.zeros(4), np.zeros((4, 4)),
                          np.zeros(4), np.zeros((10, 4)), np.zeros(10))

    def test_non_finite_rejected(self):
        p = init_params(0, 3, 4, 4, 5)
        w1 = p.w1.copy()
        w1[0, 0] = np.nan
        with pytest.raises(InputError):
            NetworkParams(w1, p.b1, p.w2, p.b2, p.w3, p.b3)

    def test_arrays_are_views_of_one_flat_vector(self):
        p = init_params(0, 3, 4, 4, 5)
        assert p.flat.flags.c_contiguous and p.flat.dtype == np.float64
        assert np.array_equal(p.flat, np.concatenate([a.ravel() for _, a in p.arrays()]))
        p.flat[:] = 0.0
        assert not any(a.any() for _, a in p.arrays())

    def test_constructor_copies(self):
        p = init_params(0, 3, 4, 4, 5)
        q = NetworkParams(*(a for _, a in p.arrays()))
        q.w1[0, 0] += 1.0
        assert p.w1[0, 0] != q.w1[0, 0]


# ----------------------------------------------------------------- forward

class TestForward:
    def test_input_flattening_is_interleaved(self):
        rng = np.random.default_rng(0)
        loop = tiny_loop(rng)
        p = init_params(0, 3, 4, 4, 5)
        _, trace = forward(p, loop_batch([loop]))
        assert np.array_equal(trace.x, loop.reshape(1, -1))
        assert trace.x[0, 0] == loop[0, 0] and trace.x[0, 1] == loop[0, 1]

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        p = init_params(2, 3, 4, 4, 5)
        out, _ = forward(p, tiny_batch(rng))
        assert out.shape == (1, 10)
        out, _ = forward(p, loop_batch([tiny_loop(rng) for _ in range(3)]))
        assert out.shape == (3, 10)

    def test_matches_manual_matmul(self):
        rng = np.random.default_rng(3)
        loops = [tiny_loop(rng) for _ in range(3)]
        p = init_params(4, 3, 4, 4, 5)
        x = loop_batch(loops)
        pred, trace = forward(p, x)
        a1 = np.maximum(x @ p.w1.T + p.b1, 0.0)
        a2 = np.maximum(a1 @ p.w2.T + p.b2, 0.0)
        out = a2 @ p.w3.T + p.b3
        assert pred == pytest.approx(out, abs=0.0)
        assert trace.output == pytest.approx(out, abs=0.0)
        for s, loop in enumerate(loops):  # row s is loop s's own output
            row, _ = forward(p, x[s:s + 1])
            assert row[0] == pytest.approx(out[s], rel=1e-12, abs=1e-15)

    def test_loop_size_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        p = init_params(0, 4, 4, 4, 5)
        with pytest.raises(ConfigError):
            forward(p, tiny_batch(rng, n=3))
        with pytest.raises(ConfigError):
            forward(p, np.zeros(8))  # one row per loop, not a flat vector

    def test_clamp_clips_y_only_and_gates(self):
        rng = np.random.default_rng(5)
        loop = tiny_loop(rng)
        p = init_params(6, 3, 4, 4, 50)
        raw, _ = forward(p, loop_batch([loop]))
        lo, hi = -0.01, 0.01
        clamped, trace = forward(p, loop_batch([loop]), y_clamp=(lo, hi))
        assert np.array_equal(clamped[:, 0::2], raw[:, 0::2])  # x untouched
        assert clamped[:, 1::2].min() >= lo and clamped[:, 1::2].max() <= hi
        ys = raw[:, 1::2]
        assert np.array_equal(trace.gate[:, 1::2] == 0.0, (ys <= lo) | (ys >= hi))
        assert np.all(trace.gate[:, 0::2] == 1.0)
        assert np.array_equal(trace.output, raw)  # trace pre-clamp

    def test_boundary_value_counts_as_clamped(self):
        p = NetworkParams(np.zeros((4, 6)), np.zeros(4), np.zeros((4, 4)),
                          np.zeros(4), np.zeros((2, 4)), np.array([0.3, 1.0]))
        loop = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        pred, trace = forward(p, loop_batch([loop]), y_clamp=(-1.0, 1.0))
        assert pred[0] == pytest.approx([0.3, 1.0])
        assert trace.gate[0, 1] == 0.0  # y is exactly at the bound

    def test_clamp_clips_y_values_and_is_idempotent(self):
        # output (x, y) pairs (5, 5), (-5, -5), (0.2, 0.3) from the biases alone
        def bias_only(out):
            return NetworkParams(np.zeros((4, 6)), np.zeros(4), np.zeros((4, 4)),
                                 np.zeros(4), np.zeros((len(out), 4)), np.asarray(out))
        x = loop_batch([np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])])
        once, _ = forward(bias_only([5.0, 5.0, -5.0, -5.0, 0.2, 0.3]), x, y_clamp=(-1.0, 1.0))
        assert once[0, 0::2] == pytest.approx([5.0, -5.0, 0.2])  # x untouched
        assert once[0, 1::2] == pytest.approx([1.0, -1.0, 0.3])
        twice, _ = forward(bias_only(once[0]), x, y_clamp=(-1.0, 1.0))
        assert np.array_equal(once, twice)

    def test_empty_clamp_range_rejected(self):
        rng = np.random.default_rng(6)
        p = init_params(0, 3, 4, 4, 5)
        with pytest.raises(InputError):
            forward(p, tiny_batch(rng), y_clamp=(1.0, -1.0))


# ---------------------------------------------------------------- backward

def quadratic_loss_and_cotangent(output: np.ndarray, targets: np.ndarray):
    # smooth stand-in loss: sum((out - t)^2); d/d_out = 2(out - t)
    return float(((output - targets) ** 2).sum()), 2.0 * (output - targets)


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_param_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = tiny_batch(rng)
        p = init_params(seed, 3, 4, 4, 5)
        targets = rng.normal(size=(1, 10))

        def loss_of(theta):
            q = vector_to_params(p, theta)
            _, trace = forward(q, x)
            val, _ = quadratic_loss_and_cotangent(trace.output, targets)
            return val

        _, trace = forward(p, x)
        _, cot = quadratic_loss_and_cotangent(trace.output, targets)
        got = gradient(p, trace, cot)
        want = fd_grad_flat(loss_of, params_to_vector(p), eps=1e-6)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)

    def test_clamped_outputs_pass_zero_gradient(self):
        rng = np.random.default_rng(200)
        p = init_params(1, 3, 4, 4, 5)
        _, trace = forward(p, tiny_batch(rng), y_clamp=(-1e-9, 1e-9))  # clamp everything
        assert np.all(trace.gate[:, 1::2] == 0.0)
        cot = np.zeros_like(trace.output)
        cot[:, 1::2] = 123.0  # gradient only through y outputs
        grads = gradient(p, trace, cot)
        assert grads.shape == p.flat.shape
        assert not grads.any()

    def test_relu_gate_is_strict_at_zero(self):
        # zero weights/biases make every pre-activation exactly 0.0
        p = NetworkParams(np.zeros((4, 6)), np.zeros(4), np.zeros((4, 4)),
                          np.zeros(4), np.zeros((2, 4)), np.zeros(2))
        loop = np.array([[0.2, 0.1], [1.0, 0.3], [0.5, 1.0]])
        _, trace = forward(p, loop_batch([loop]))
        gw1, gb1, gw2, gb2, gw3, gb3 = p.split(gradient(p, trace, np.ones((1, 2))))
        # d/db3 is direct; everything upstream is killed by z==0 gates
        assert np.array_equal(gb3, np.ones(2))
        assert not gw2.any() and not gb1.any() and not gw1.any()

    def test_cotangent_shape_checked(self):
        rng = np.random.default_rng(7)
        p = init_params(0, 3, 4, 4, 5)
        _, trace = forward(p, tiny_batch(rng))
        with pytest.raises(ConfigError):
            backward(p, trace, np.ones((1, 4)), np.empty_like(p.flat))
        with pytest.raises(ConfigError):
            backward(p, trace, np.ones(10), np.empty_like(p.flat))  # one row per sample, not flat

    def test_backward_fills_all_but_w3_and_gradient_adds_w3(self):
        """``backward`` writes into the caller's vector and leaves w3's slice as
        it was; ``gradient`` is the same vector with w3's slice g3.T @ a2."""
        rng = np.random.default_rng(9)
        p = init_params(0, 3, 4, 4, 5)
        x = loop_batch([tiny_loop(rng) for _ in range(3)])
        cot = rng.normal(size=(3, 10))
        _, trace = forward(p, x, y_clamp=(-0.1, 0.1))
        out = np.full_like(p.flat, 7.0)
        g3 = backward(p, trace, cot, out)
        assert np.array_equal(g3, cot * trace.gate)
        whole = gradient(p, trace, cot)
        w3 = p.split(np.arange(p.flat.size))[4].ravel()  # the flat indices of w3
        assert np.all(out[w3] == 7.0)
        rest = np.setdiff1d(np.arange(p.flat.size), w3)
        assert np.array_equal(out[rest], whole[rest])
        assert np.array_equal(p.split(whole)[4], g3.T @ trace.a2)

    def test_batched_gradient_is_sum_of_per_row_gradients(self):
        rng = np.random.default_rng(8)
        p = init_params(0, 3, 4, 4, 5)
        x = loop_batch([tiny_loop(rng) for _ in range(4)])
        cot = rng.normal(size=(4, 10))
        _, trace = forward(p, x, y_clamp=(-0.1, 0.1))
        batched = gradient(p, trace, cot)
        rows = []
        for s in range(4):
            _, row_trace = forward(p, x[s:s + 1], y_clamp=(-0.1, 0.1))
            rows.append(gradient(p, row_trace, cot[s:s + 1]))
        assert batched == pytest.approx(np.sum(rows, axis=0), rel=1e-12, abs=1e-15)
        assert not np.array_equal(rows[0], rows[1])  # the rows really differ


# -------------------------------------------------------------- checkpoint

class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        p = init_params(11, 5, 8, 8, 9)
        meta = {"note": "abc", "nested": {"k": [1, 2]}}
        path = tmp_path / "net.l2m"
        save_checkpoint(path, p, meta)
        q, got_meta = load_checkpoint(path)
        assert got_meta == meta
        for (_, a), (_, b) in zip(p.arrays(), q.arrays()):
            assert np.array_equal(a, b) and a.dtype == b.dtype

    def test_blob_built_by_hand_in_documented_layout_loads_bit_exactly(self, tmp_path):
        # one sorted-keys JSON header line, then w1, b1, w2, b2, w3, b3 as
        # little-endian float64, packed here without numpy's byte export
        rng = np.random.default_rng(12)
        arrays = {"w1": rng.normal(size=(8, 10)), "b1": rng.normal(size=8),
                  "w2": rng.normal(size=(6, 8)), "b2": rng.normal(size=6),
                  "w3": rng.normal(size=(4, 6)), "b3": rng.normal(size=4)}
        meta = {"note": "by hand"}
        header = {"format": "loop2mesh-checkpoint", "version": 1, "dtype": "<f8",
                  "shapes": {k: list(a.shape) for k, a in arrays.items()}, "meta": meta}
        blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            values = arrays[name].ravel().tolist()
            blob += struct.pack(f"<{len(values)}d", *values)
        path = tmp_path / "hand.l2m"
        path.write_bytes(blob)
        p, got_meta = load_checkpoint(path)
        assert got_meta == meta
        for name, arr in arrays.items():
            assert np.array_equal(getattr(p, name), arr)
        save_checkpoint(tmp_path / "again.l2m", p, meta)
        assert (tmp_path / "again.l2m").read_bytes() == blob

    def test_identical_params_produce_identical_bytes(self, tmp_path):
        p = init_params(11, 5, 8, 8, 9)
        a, b = tmp_path / "a.l2m", tmp_path / "b.l2m"
        save_checkpoint(a, p, {"m": 1})
        save_checkpoint(b, NetworkParams(*(a for _, a in p.arrays())), {"m": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "junk.l2m"
        path.write_bytes(b"\x00\x01\x02 binary junk without newline")
        with pytest.raises(InputError):
            load_checkpoint(path)

    def test_wrong_format_marker_rejected(self, tmp_path):
        path = tmp_path / "other.l2m"
        path.write_bytes(b'{"format": "elsewise", "version": 1}\n')
        with pytest.raises(InputError, match="format"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        p = init_params(0, 3, 4, 4, 5)
        path = tmp_path / "net.l2m"
        save_checkpoint(path, p)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(InputError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = init_params(0, 3, 4, 4, 5)
        path = tmp_path / "net.l2m"
        save_checkpoint(path, p)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(InputError, match="trailing"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        p = init_params(0, 3, 4, 4, 5)
        path = tmp_path / "net.l2m"
        save_checkpoint(path, p)
        blob = path.read_bytes()
        head, rest = blob.split(b"\n", 1)
        head = head.replace(b'"version": 1', b'"version": 99')
        path.write_bytes(head + b"\n" + rest)
        with pytest.raises(InputError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: [h],                                              # a JSON list
        lambda h: dict(h, shapes=5),                                # shapes not an object
        lambda h: dict(h, shapes=dict(h["shapes"], w1=["4", 6])),  # string size
        lambda h: dict(h, shapes=dict(h["shapes"], w1=[4.0, 6])),  # float size
        lambda h: dict(h, shapes=dict(h["shapes"], w1=[True, 6])), # bool size
        lambda h: dict(h, shapes=dict(h["shapes"], b1=[-4])),      # negative size
        lambda h: {k: v for k, v in h.items() if k != "shapes"},
        lambda h: {k: v for k, v in h.items() if k != "meta"},
    ], ids=["list", "shapes-int", "size-str", "size-float", "size-bool", "size-negative",
            "no-shapes", "no-meta"])
    def test_malformed_header_raises_parse_error(self, tmp_path, edit):
        path = tmp_path / "net.l2m"
        save_checkpoint(path, init_params(0, 3, 4, 4, 5))
        head, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + rest)
        with pytest.raises(InputError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b'{"n": ' + b"1" * 5000 + b"}", b"[" * 5000],
                             ids=["int-over-4300-digits", "deep-nesting"])
    def test_header_python_cannot_read_raises_parse_error(self, tmp_path, header):
        path = tmp_path / "net.l2m"
        path.write_bytes(header + b"\n")
        with pytest.raises(InputError, match="invalid checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, message", [
        (b'"w1": [4, 6]', b'"w1": [24]', "weight matrices must be 2-D"),
        (b'"b1": [4]', b'"b1": [2, 2]', "mutually inconsistent"),
        (b'"w3": [10, 4]', b'"w3": [40]', "weight matrices must be 2-D"),
        (b'"w1": [4, 6]', b'"w1": [6, 4]', "mutually inconsistent"),
        (b'"w1": [4, 6]', b'"w1": [8, 3]', "widths must be even"),
    ], ids=["w1-rank-1", "b1-rank-2", "w3-rank-1", "inconsistent", "odd-input"])
    def test_header_shapes_that_cannot_form_a_network_raise_parse_error(
            self, tmp_path, old, new, message):
        # same byte count, so only the shapes are wrong
        path = tmp_path / "net.l2m"
        save_checkpoint(path, init_params(0, 3, 4, 4, 5))
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(InputError, match=message):
            load_checkpoint(path)

    def test_non_finite_payload_names_its_array(self, tmp_path):
        p = init_params(0, 3, 4, 4, 5)
        p.b2[1] = np.inf
        path = tmp_path / "net.l2m"
        save_checkpoint(path, p)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: parameter b2 "):
            load_checkpoint(path)

    def test_loaded_parameters_are_views_of_one_writable_vector(self, tmp_path):
        path = tmp_path / "net.l2m"
        save_checkpoint(path, init_params(0, 3, 4, 4, 5))
        p, _ = load_checkpoint(path)
        assert p.flat.flags.c_contiguous and p.flat.flags.writeable
        assert p.flat.dtype == np.float64
        p.flat[:] = 0.0
        assert not any(a.any() for _, a in p.arrays())

    def test_load_allocates_the_payload_about_once(self, tmp_path):
        p = init_params(0, 35, 256, 512, 400)  # the desk network, 4.5 MB
        path = tmp_path / "net.l2m"
        save_checkpoint(path, p, {"note": "desk"})
        payload = p.flat.nbytes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            q, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(q.flat, p.flat)
        assert peak < 1.5 * payload, f"peak {peak} B for a {payload} B payload"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_checkpoint_read_from_a_pipe(self, tmp_path):
        p = init_params(3, 3, 4, 4, 5)
        save_checkpoint(tmp_path / "net.l2m", p, {"via": "pipe"})
        blob = (tmp_path / "net.l2m").read_bytes()
        pipe = tmp_path / "pipe.l2m"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(blob,), daemon=True)
        writer.start()
        q, meta = load_checkpoint(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert meta == {"via": "pipe"} and np.array_equal(q.flat, p.flat)
        assert q.flat.flags.writeable

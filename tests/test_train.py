import json
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop2mesh.losses as losses_mod
import loop2mesh.train as train_mod
from loop2mesh import net
from loop2mesh.errors import ConfigError, InputError, TrainingDivergedError
from loop2mesh.geometry import StandardizeTransform, invert_standardize, standardize_loop
from loop2mesh.ingest import build_dataset, load_manifest
from loop2mesh.losses import LossWeights
from loop2mesh.net import backward, forward, init_params
from loop2mesh.train import (
    TrainConfig,
    TrainLog,
    TrainMode,
    TrainResult,
    adam_step,
    default_interior_weight,
    load_trained,
    predict,
    save_trained,
    train,
)

from oracles import reference_adam, unfused_adam_step, unfused_backward


@pytest.fixture(scope="module")
def small_dataset(manifest_path):
    return build_dataset(load_manifest(manifest_path), loop_size=12,
                         target_count=150, seed=0)


# the paper's desk configuration, as a config file holds it
DESK_CONFIG = {"mode": "stand-clamp", "n_points": 400, "loop_size": 35, "upsample_count": 1500,
               "weights": {"chamfer": 1.0, "repulsion": 1.0, "interior": 10.0}}


def small_config(**over) -> TrainConfig:
    base = dict(mode=TrainMode.RAW, n_points=40, loop_size=12, upsample_count=150,
                h1=16, h2=24, weights=LossWeights(1.0, 1.0, 10.0),
                epochs=40, seed=0)
    base.update(over)
    return TrainConfig(**base)


# --------------------------------------------------------------------- Adam

def no_output_gradient(p, s=1):
    """A cotangent and activations for ``adam_step`` that give w3 a zero gradient."""
    return np.zeros((s, p.w3.shape[0])), np.zeros((s, p.w3.shape[1]))


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        p = init_params(0, 3, 4, 4, 2)
        g = np.zeros_like(p.flat)
        p.split(g)[0][...] = 0.5  # constant gradient on w1
        before = p.w1.copy()
        adam_step(p, g, np.zeros((2, p.flat.size)), np.empty((3, p.flat.size)),
                  *no_output_gradient(p), lr=1e-3, t=1)
        step = before - p.w1
        # bias-corrected first step is lr * g/(|g| + eps') ~= lr exactly
        assert step == pytest.approx(np.full_like(step, 1e-3), rel=1e-4)

    def test_matches_reference_implementation_over_many_steps(self):
        rng = np.random.default_rng(0)
        p = init_params(1, 3, 4, 4, 2)
        snapshots = [a.copy() for _, a in p.arrays()]
        grads_per_step = []
        moments = np.zeros((2, p.flat.size))
        for t in range(1, 8):
            g = np.zeros_like(p.flat)
            for arr in p.split(g):
                arr[...] = rng.normal(size=arr.shape)
            g3, a2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
            p.split(g)[4][...] = g3.T @ a2  # w3's gradient, which adam_step builds itself
            grads_per_step.append([a.copy() for a in p.split(g)])
            adam_step(p, g, moments, np.empty((3, p.flat.size)), g3, a2, lr=1e-2, t=t)
        want = reference_adam(snapshots, grads_per_step, lr=1e-2)
        for (_, got), ref in zip(p.arrays(), want):
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_block_size_does_not_change_the_update(self, monkeypatch):
        results = []
        for block in (10, 10 ** 9):  # many blocks with a short last one; one block
            monkeypatch.setattr(train_mod, "_ADAM_BLOCK", block)
            p = init_params(2, 3, 4, 5, 2)
            moments = np.zeros((2, p.flat.size))
            for t in range(1, 4):
                rng = np.random.default_rng(t)
                adam_step(p, rng.normal(size=p.flat.size), moments, np.empty((3, p.flat.size)),
                          rng.normal(size=(2, 4)), rng.normal(size=(2, 5)), lr=1e-2, t=t)
            results.append((p.flat.copy(), *moments.copy()))
        assert p.flat.size % 10 != 0
        for blocked, whole in zip(*results):
            assert np.array_equal(blocked, whole)

    @pytest.mark.parametrize("s, loop_size, h1, h2, n_points, block", [
        (1, 35, 256, 512, 400, None),  # desk: w3's 800 rows are 12.5 blocks of 64
        (12, 35, 256, 512, 100, None),  # fleet: w3's 200 rows are 3 blocks and 8 rows
        (2, 3, 4, 6, 5, None),  # w3 (10 x 6) is smaller than one block
        (3, 3, 4, 300, 55, None),  # 109 rows fit a block, 108 are taken: 108 and 2 rows
        (2, 3, 4, 6, 5, 4),  # a block shorter than a w3 row: still two rows a block
    ], ids=["desk", "fleet", "tiny", "even-rows", "short-block"])
    def test_fused_step_equals_the_unfused_oracle(self, monkeypatch, s, loop_size, h1, h2,
                                                  n_points, block):
        """Twenty of train's steps, ``backward`` then ``adam_step`` building w3's
        gradient a block of rows at a time, leave parameters and moments bit-equal
        to the former full backward followed by Adam on the whole gradient."""
        if block is not None:
            monkeypatch.setattr(train_mod, "_ADAM_BLOCK", block)
        rng = np.random.default_rng(s * 1000 + n_points + h2)
        x = rng.normal(size=(s, 2 * loop_size))
        target = rng.normal(scale=0.3, size=(s, 2 * n_points))
        fused, oracle = (init_params(0, loop_size, h1, h2, n_points) for _ in range(2))
        moments, oracle_moments = np.zeros((2, fused.flat.size)), np.zeros((2, fused.flat.size))
        grads = np.full_like(fused.flat, np.nan)  # w3's slice is never read
        scratch = np.empty((3, max(train_mod._ADAM_BLOCK, 2 * h2)))
        start = fused.flat.copy()
        for t in range(1, 21):
            _, trace = forward(fused, x, y_clamp=(-0.2, 0.2))
            g3 = backward(fused, trace, 2.0 * (trace.output - target), grads)
            adam_step(fused, grads, moments, scratch, g3, trace.a2, lr=1e-2, t=t)
            _, trace = forward(oracle, x, y_clamp=(-0.2, 0.2))
            unfused_adam_step(oracle.flat, unfused_backward(oracle, trace, 2.0 * (trace.output - target)),
                              oracle_moments, lr=1e-2, t=t)
        assert not trace.gate.all() and trace.gate.any()  # the clamp gate is exercised
        assert not np.array_equal(fused.flat, start)
        assert np.array_equal(fused.flat, oracle.flat)
        assert np.array_equal(moments, oracle_moments)

    def test_rejects_bad_step_count(self):
        p = init_params(0, 3, 4, 4, 2)
        with pytest.raises(InputError):
            adam_step(p, np.zeros_like(p.flat), np.zeros((2, p.flat.size)),
                      np.empty((3, p.flat.size)), *no_output_gradient(p), t=0)

    def test_rejects_gradient_of_wrong_size(self):
        p = init_params(0, 3, 4, 4, 2)
        with pytest.raises(ConfigError):
            adam_step(p, np.zeros(p.flat.size - 1), np.zeros((2, p.flat.size)),
                      np.empty((3, p.flat.size)), *no_output_gradient(p), t=1)


# ------------------------------------------------------------------- config

class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig().validate()

    def test_dict_round_trip(self):
        cfg = small_config(mode=TrainMode.STANDARDISED_CLAMPED, clamp_y=(-0.5, 0.5))
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"epochz": 3})

    def test_unknown_mode_named_in_error(self):
        with pytest.raises(ConfigError, match="stand-clamp"):
            TrainConfig.from_dict({"mode": "clamped"})

    @pytest.mark.parametrize("bad", [
        {"epochs": 0}, {"n_points": -1}, {"lr": 0.0}, {"loop_size": 2},
        {"clamp_y": (1.0, -1.0)},
        # values of the wrong type, as a JSON config file can hold them
        {"n_points": "abc"}, {"lr": "x"}, {"epochs": None}, {"seed": -1},
        {"h1": float("inf")}, {"clamp_y": 5}, {"clamp_y": [0.0, 1.0, 2.0]},
        {"weights": 5}, {"weights": {"repulsion": "x"}},
        # no silent coercion: ints stay ints, and a bool is not a number
        {"n_points": 3.7}, {"n_points": 400.0}, {"epochs": True}, {"seed": False},
        {"lr": True}, {"clamp_y": [True, 1.0]}, {"weights": {"repulsion": True}},
        # a misspelt weight is not silently dropped
        {"weights": {"repulsoin": 1}},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(bad)

    def test_ints_accepted_for_float_fields(self):
        cfg = TrainConfig.from_dict({"lr": 1, "clamp_y": [-2, 2], "weights": {"repulsion": 3}})
        assert (cfg.lr, cfg.clamp_y, cfg.weights.repulsion) == (1.0, (-2.0, 2.0), 3.0)
        assert type(cfg.lr) is float and type(cfg.weights.repulsion) is float

    def test_desk_config_dict_is_pinned(self):
        assert json.dumps(TrainConfig.from_dict(DESK_CONFIG).to_dict(), sort_keys=True) == (
            '{"clamp_y": [-1.0, 1.0], "epochs": 5000, "h1": 256, "h2": 512, "loop_size": 35, '
            '"lr": 0.001, "mode": "stand-clamp", "n_points": 400, "seed": 0, '
            '"upsample_count": 1500, "weights": {"chamfer": 1.0, "epsilon": 1e-08, '
            '"interior": 10.0, "repulsion": 1.0}}')

    def test_desk_checkpoint_header_is_pinned(self, tmp_path):
        cfg = TrainConfig.from_dict(DESK_CONFIG)
        result = TrainResult(init_params(0, 35, 256, 512, 400),
                             StandardizeTransform(0.5, 0.25, 0.125, 2.0), TrainLog(()))
        save_trained(tmp_path / "desk.l2m", result, cfg, ["naca2220"])
        header = (tmp_path / "desk.l2m").read_bytes().split(b"\n", 1)[0]
        assert header == (
            b'{"dtype": "<f8", "format": "loop2mesh-checkpoint", "meta": {"config": '
            b'{"clamp_y": [-1.0, 1.0], "epochs": 5000, "h1": 256, "h2": 512, "loop_size": 35, '
            b'"lr": 0.001, "mode": "stand-clamp", "n_points": 400, "seed": 0, '
            b'"upsample_count": 1500, "weights": {"chamfer": 1.0, "epsilon": 1e-08, '
            b'"interior": 10.0, "repulsion": 1.0}}, "samples": [{"name": "naca2220", '
            b'"transform": {"mean_x": 0.5, "mean_y": 0.25, "scale_x": 0.125, "scale_y": 2.0}}]}, '
            b'"shapes": {"b1": [256], "b2": [512], "b3": [800], "w1": [256, 70], '
            b'"w2": [512, 256], "w3": [800, 512]}, "version": 1}')

    def test_default_interior_weight_by_mode(self):
        assert default_interior_weight(TrainMode.RAW) == 10.0
        assert default_interior_weight(TrainMode.STANDARDISED) == 10.0
        assert default_interior_weight(TrainMode.STANDARDISED_CLAMPED) == 0.0


# ----------------------------------------------------------------- training

class TestTrain:
    def test_log_has_one_record_per_epoch(self, small_dataset):
        res = train(small_dataset, small_config(epochs=15))
        assert res.log.terms.shape == (15, 5)
        epochs = [int(line.split(",")[0]) for line in res.log.to_csv_text().splitlines()[1:]]
        assert epochs == list(range(1, 16))
        assert np.isfinite(res.log.terms).all()

    def test_one_forward_and_one_backward_per_epoch(self, small_dataset, monkeypatch):
        batches, backward_calls = [], []

        def counting_forward(params, x, y_clamp=None):
            batches.append(np.shape(x))
            return net.forward(params, x, y_clamp)

        def counting_backward(params, trace, d_output, out):
            backward_calls.append(np.shape(d_output))
            return net.backward(params, trace, d_output, out)

        monkeypatch.setattr(train_mod, "forward", counting_forward)
        monkeypatch.setattr(train_mod, "backward", counting_backward)
        assert len(small_dataset.samples) == 2
        train(small_dataset, small_config(epochs=3))
        assert batches == [(2, 24)] * 3
        assert backward_calls == [(2, 80)] * 3

    def test_standardisation_maps_all_targets_in_one_call_and_all_loops_in_one(
            self, small_dataset, monkeypatch):
        calls = []

        def counting_standardize(transform, xy):
            calls.append(np.shape(xy))
            return standardize_loop(transform, xy)

        monkeypatch.setattr(train_mod, "standardize_loop", counting_standardize)
        assert len(small_dataset.samples) == 2
        train(small_dataset, small_config(mode=TrainMode.STANDARDISED, epochs=1))
        assert calls == [(2, 150, 2), (2, 12, 2)]

    def test_one_pairwise_and_one_edge_kernel_per_epoch(self, small_dataset, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append((name, *(np.shape(a) for a in args)))
                return fn(*args)
            return wrapper

        # rebind every loop2mesh global that names the function, as perfbench's
        # tracer does: the loss names it reads must be the ones train calls
        for name in ("composite", "chamfer", "_pairwise", "repulsion", "interior_penalty",
                     "intruders", "mean_pairwise_distance"):
            fn = getattr(losses_mod, name)
            wrapped = counting(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("loop2mesh."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            monkeypatch.setattr(mod, key, wrapped)
        assert len(small_dataset.samples) == 2
        res = train(small_dataset, small_config(epochs=3))
        pairs = (3, 2, 40, 40)  # dx, dy and d2 of both clouds
        # train passes its one (N, M) Chamfer matrix to composite, which hands it on
        per_epoch = [("composite", (2, 40, 2), (2, 150, 2), (2, 12, 2), (), (40, 150)),
                     ("chamfer", (40, 2), (150, 2), (40, 150)),
                     ("chamfer", (40, 2), (150, 2), (40, 150)),
                     ("_pairwise", (2, 40, 2)), ("repulsion", pairs, ()),
                     ("interior_penalty", (2, 40, 2), (2, 12, 2)),
                     ("intruders", (2, 40, 2), (2, 12, 2)),
                     ("mean_pairwise_distance", pairs)]
        assert calls == per_epoch * 3
        assert (res.log.terms[:, 4] > 0.0).all()  # mean pairwise distance

    def test_loss_decreases_on_small_run(self, small_dataset):
        res = train(small_dataset, small_config(epochs=150))
        first, last = res.log.terms[[0, -1]]
        assert last[3] < first[3]  # total
        assert last[0] < first[0]  # chamfer

    def test_deterministic_given_config(self, small_dataset):
        a = train(small_dataset, small_config(epochs=10))
        b = train(small_dataset, small_config(epochs=10))
        for (_, x), (_, y) in zip(a.params.arrays(), b.params.arrays()):
            assert np.array_equal(x, y)
        assert np.array_equal(a.log.terms, b.log.terms)

    def test_seed_changes_result(self, small_dataset):
        a = train(small_dataset, small_config(epochs=5, seed=0))
        b = train(small_dataset, small_config(epochs=5, seed=1))
        assert not np.array_equal(a.params.w1, b.params.w1)

    def test_raw_mode_has_no_transforms(self, small_dataset):
        res = train(small_dataset, small_config(epochs=2))
        assert res.transform is None

    def test_standardised_mode_fits_one_transform_on_pooled_targets(self, small_dataset):
        assert len(small_dataset.samples) > 1
        res = train(small_dataset, small_config(mode=TrainMode.STANDARDISED, epochs=2))
        pooled = np.vstack([s.target for s in small_dataset.samples])
        t = res.transform
        assert (t.mean_x, t.mean_y) == pytest.approx(pooled.mean(axis=0).tolist())
        assert (t.scale_x, t.scale_y) == pytest.approx(pooled.std(axis=0).tolist())

    def test_clamped_mode_confines_standardised_y(self, small_dataset):
        cfg = small_config(mode=TrainMode.STANDARDISED_CLAMPED, epochs=3,
                           clamp_y=(-1.0, 1.0))
        res = train(small_dataset, cfg)
        samp = small_dataset.samples[0]
        pred = predict(res.params, res.transform, samp.loop, cfg)
        t = res.transform
        std_y = (pred[:, 1] - t.mean_y) / t.scale_y
        assert std_y.min() >= -1.0 - 1e-12
        assert std_y.max() <= 1.0 + 1e-12

    def test_loop_size_mismatch_rejected(self, small_dataset):
        with pytest.raises(ConfigError, match="loop_size"):
            train(small_dataset, small_config(loop_size=35))

    def test_divergence_raises_with_epoch(self, small_dataset):
        cfg = small_config(epochs=50, lr=1e155)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as exc_info:
            train(small_dataset, cfg)
        assert exc_info.value.epoch >= 2
        assert str(exc_info.value.epoch) in str(exc_info.value)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_in_a_later_sample_names_the_epoch(self, manifest_path,
                                                                 monkeypatch, bad):
        ds = build_dataset(load_manifest(manifest_path) * 2, loop_size=12,
                           target_count=150, seed=0)
        calls = []

        def blowing_up_forward(params, x, y_clamp=None):
            out, trace = net.forward(params, x, y_clamp)
            calls.append(None)
            if len(calls) == 3:
                out[2, 7] = bad  # sample 2's fourth point, third epoch
            return out, trace

        monkeypatch.setattr(train_mod, "forward", blowing_up_forward)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(TrainingDivergedError,
                               match="^non-finite network output at epoch 3$") as exc_info:
                train(ds, small_config(epochs=10))
        assert exc_info.value.epoch == 3
        assert len(calls) == 3

    def test_non_finite_last_step_diverges_instead_of_returning(self, small_dataset, monkeypatch):
        """No forward pass follows the last Adam step, so its parameters are checked."""
        def nan_backward(params, trace, d_out, out):
            out.fill(np.nan)
            return np.full_like(d_out, np.nan)

        monkeypatch.setattr(train_mod, "backward", nan_backward)
        with pytest.raises(TrainingDivergedError,
                           match="^non-finite parameters after epoch 1$") as exc_info:
            train(small_dataset, small_config(epochs=1))
        assert exc_info.value.epoch == 1

# ----------------------------------------------------------------- predict

class TestPredict:
    def test_raw_round_trip_matches_forward(self, small_dataset):
        from loop2mesh.net import forward
        res = train(small_dataset, small_config(epochs=2))
        samp = small_dataset.samples[0]
        got = predict(res.params, None, samp.loop, small_config(epochs=2))
        want, _ = forward(res.params, samp.loop.vertices.reshape(1, -1))
        assert np.array_equal(got, want.reshape(-1, 2))

    def test_standardised_prediction_is_forward_in_the_standardised_frame(self, small_dataset):
        from loop2mesh.net import forward
        cfg = small_config(mode=TrainMode.STANDARDISED, epochs=2)
        res = train(small_dataset, cfg)
        samp, t = small_dataset.samples[0], res.transform
        got = predict(res.params, t, samp.loop, cfg)
        std_loop = standardize_loop(t, samp.loop.vertices)
        out, _ = forward(res.params, std_loop.reshape(1, -1))
        want = invert_standardize(t, out.reshape(-1, 2))
        assert np.array_equal(got, want)

    def test_standardised_prediction_has_n_points(self, small_dataset):
        cfg = small_config(mode=TrainMode.STANDARDISED, epochs=2)
        res = train(small_dataset, cfg)
        samp = small_dataset.samples[0]
        pred = predict(res.params, res.transform, samp.loop, cfg)
        assert len(pred) == cfg.n_points

    def test_raw_mode_rejects_transform(self, small_dataset):
        cfg = small_config(epochs=2)
        res = train(small_dataset, cfg)
        t_cfg = small_config(mode=TrainMode.STANDARDISED, epochs=2)
        t_res = train(small_dataset, t_cfg)
        samp = small_dataset.samples[0]
        with pytest.raises(InputError):
            predict(res.params, t_res.transform, samp.loop, cfg)

    def test_standardised_mode_requires_transform(self, small_dataset):
        cfg = small_config(mode=TrainMode.STANDARDISED, epochs=2)
        res = train(small_dataset, cfg)
        with pytest.raises(InputError):
            predict(res.params, None, small_dataset.samples[0].loop, cfg)

    def test_dimension_mismatch_rejected(self, small_dataset):
        res = train(small_dataset, small_config(epochs=2))
        with pytest.raises(ConfigError):
            predict(res.params, None, small_dataset.samples[0].loop,
                    small_config(epochs=2, n_points=99))


# ------------------------------------------------------------- persistence

class TestSaveLoadTrained:
    def test_round_trip(self, small_dataset, tmp_path):
        cfg = small_config(mode=TrainMode.STANDARDISED_CLAMPED, epochs=3)
        res = train(small_dataset, cfg)
        path = tmp_path / "run.l2m"
        names = [s.name for s in small_dataset.samples]
        save_trained(path, res, cfg, names)
        params, got_cfg, transform = load_trained(path)
        assert got_cfg == cfg
        assert transform == res.transform
        records = json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]["samples"]
        assert records == [{"name": n, "transform": res.transform.to_dict()} for n in names]
        for (_, a), (_, b) in zip(res.params.arrays(), params.arrays()):
            assert np.array_equal(a, b)

    def test_raw_checkpoints_store_no_transform(self, small_dataset, tmp_path):
        cfg = small_config(epochs=2)
        res = train(small_dataset, cfg)
        path = tmp_path / "raw.l2m"
        save_trained(path, res, cfg, [s.name for s in small_dataset.samples])
        _, _, transform = load_trained(path)
        assert transform is None
        records = json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]["samples"]
        assert [rec["transform"] for rec in records] == [None] * len(small_dataset.samples)

    def test_tampered_metadata_rejected(self, small_dataset, tmp_path):
        cfg = small_config(epochs=2)
        res = train(small_dataset, cfg)
        path = tmp_path / "run.l2m"
        save_trained(path, res, cfg, [s.name for s in small_dataset.samples])
        blob = path.read_bytes()
        head, rest = blob.split(b"\n", 1)
        head = head.replace(b'"n_points": 40', b'"n_points": 41')
        path.write_bytes(head + b"\n" + rest)
        with pytest.raises(InputError):
            load_trained(path)

    @pytest.mark.parametrize("key, value", [
        ("mean_x", True), ("mean_y", "0.5"), ("scale_x", -1.0), ("scale_y", None),
    ])
    def test_transform_metadata_is_not_coerced(self, small_dataset, tmp_path, key, value):
        cfg = small_config(mode=TrainMode.STANDARDISED, epochs=2)
        path = tmp_path / "run.l2m"
        save_trained(path, train(small_dataset, cfg), cfg, [s.name for s in small_dataset.samples])
        head, rest = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["meta"]["samples"][0]["transform"][key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: invalid checkpoint metadata"):
            load_trained(path)


# any JSON value, NaN and the infinities included (Python's json reads them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A valid one-sample stand checkpoint's header and payload."""
    cfg = TrainConfig(mode=TrainMode.STANDARDISED, n_points=5, loop_size=3, h1=4, h2=4)
    result = TrainResult(init_params(0, 3, 4, 4, 5),
                         StandardizeTransform(0.5, 0.25, 0.125, 2.0), TrainLog(()))
    path = tmp_path_factory.mktemp("ckpt") / "tiny.l2m"
    save_trained(path, result, cfg, ["tiny"])
    head, rest = path.read_bytes().split(b"\n", 1)
    load_trained(path)  # the untouched file loads
    return path, head, rest


class TestCheckpointHeaderFuzz:
    @settings(max_examples=1500, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_one_field_set_to_any_json_value_raises_only_package_errors(self, tiny_checkpoint,
                                                                        data):
        path, head, rest = tiny_checkpoint
        header = json.loads(head)
        # walk from the root to one entry, at any depth, and replace it
        node, key = header, data.draw(st.sampled_from(sorted(header)))
        while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
            node = node[key]
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))))
        node[key] = data.draw(JSON_VALUES)
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        try:
            load_trained(path)
        except InputError:
            pass

    def test_config_that_is_a_list_is_a_parse_error(self, tiny_checkpoint):
        path, head, rest = tiny_checkpoint
        header = json.loads(head)
        header["meta"]["config"] = sorted(header["meta"]["config"])
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        with pytest.raises(InputError, match="invalid checkpoint metadata: config must be a mapping"):
            load_trained(path)


class TestTrainLogCsv:
    def test_header_and_exact_float_round_trip(self):
        row = [1.0 / 3.0, 2.0 / 7.0, 0.0, 1.0 / 3.0 + 2.0 / 7.0, 0.1234]
        log = TrainLog(np.array([row]))
        text = log.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "epoch,chamfer,repulsion,interior,total,mean_pairwise_distance"
        fields = lines[1].split(",")
        assert int(fields[0]) == 1
        assert float(fields[1]) == row[0]  # repr round-trips exactly
        assert float(fields[4]) == row[3]
        assert text.endswith("\n")

    def test_to_csv_writes_file(self, tmp_path, small_dataset):
        res = train(small_dataset, small_config(epochs=3))
        p = tmp_path / "log.csv"
        res.log.to_csv(p)
        assert p.read_text() == res.log.to_csv_text()

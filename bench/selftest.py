"""Self-tests of the benchmark's reference code and output checks.

    PYTHONPATH=src python3 bench/selftest.py

The reference functions are checked on tiny hand-made cases.  Then a
small instance of every workload runs through the same phases as a
benchmark run; all its checks must pass, and each check must fail once
its output is deliberately corrupted.
"""

import csv
import json
import os
import shutil
import struct
import sys
import tempfile
import unittest
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402
from ssnt import fileio  # noqa: E402


def container(dims, values, trailer):
    header = reference.MAGIC + struct.pack("<HQQQ", 1, *dims)
    return header + struct.pack(f"<{len(values)}d", *values) + trailer


class ReferenceCodec(unittest.TestCase):
    def test_fnv1a64_published_vectors(self):
        self.assertEqual(reference.fnv1a64(b""), 0xCBF29CE484222325)
        self.assertEqual(reference.fnv1a64(b"a"), 0xAF63DC4C8601EC8C)
        self.assertEqual(reference.fnv1a64(b"foobar"), 0x85944171F73967E8)

    def test_decode_hand_made_v1(self):
        # dims (1, 2, 2); payload k slowest, then i, then j
        values = [1.0, 2.0, 3.0, 4.0]
        payload = struct.pack("<4d", *values)
        blob = container((1, 2, 2), values, struct.pack("<Q", reference.fnv1a64(payload)))
        t = reference.decode_container(blob)
        np.testing.assert_array_equal(t, [[[1.0, 3.0], [2.0, 4.0]]])
        self.assertEqual(reference.encode_container(t), blob)

    def test_rejects_corruption(self):
        blob = bytearray(reference.encode_container(np.arange(6.0).reshape(1, 2, 3)))
        for bad in (bytes(blob[:-3]), b"XSNT1" + bytes(blob[5:]), bytes(blob[:5]) + b"\x00\x00" + bytes(blob[7:])):
            with self.assertRaises(reference.ContainerError):
                reference.decode_container(bad)
        blob[40] ^= 0x01
        with self.assertRaises(reference.ContainerError):
            reference.decode_container(bytes(blob))

    def test_agrees_with_program_writer(self):
        t = np.random.default_rng(0).standard_normal((3, 4, 5))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.ssnt")
            fileio.write_tensor(path, t)
            with open(path, "rb") as fh:
                self.assertEqual(fh.read(), reference.encode_container(t))


class ReferenceMath(unittest.TestCase):
    def test_stack_leaky_relu_by_hand(self):
        x = np.array([1.0, -2.0]).reshape(1, 1, 2)
        w1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w2 = np.array([[1.0, 1.0, 1.0]])
        y = reference.run_stack(x, [(w1, "leaky_relu", 0.1)])
        np.testing.assert_allclose(y.ravel(), [1.0, -0.2, -0.1])
        out = reference.run_stack(y, [(w2, "leaky_relu", 0.1)])
        np.testing.assert_allclose(out.ravel(), [0.7])
        np.testing.assert_allclose(reference.run_stack(x, [(w1, "relu", 0.0)]).ravel(), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(reference.run_stack(x, [(w2[:, :2], "identity", 0.0)]).ravel(), [-1.0])

    def test_loss_terms_by_hand(self):
        x0 = np.zeros((2, 2, 2))
        x0[:, :, 0] = np.diag([3.0, 4.0])  # singular values 4, 3
        x0[0, 1, 1] = 2.0  # singular values 2, 0
        ident = [(np.eye(2), "identity", 0.0)]
        obs = x0 - 1.0
        mask = np.zeros_like(x0)
        mask[0, 0, 0] = mask[1, 1, 1] = mask[0, 1, 0] = 1.0
        lowrank, fid, tv = reference.loss_terms(x0, ident, ident, 0.5, "tc", obs, mask)
        self.assertAlmostEqual(lowrank, 0.5 * 9.0)
        self.assertAlmostEqual(fid, 3.0)
        self.assertEqual(tv, 0.0)
        self.assertAlmostEqual(reference.loss_terms(x0, ident, ident, 0.0, "rtc", obs, mask)[1], 3.0)
        self.assertAlmostEqual(reference.loss_terms(x0, ident, ident, 0.0, "bs", obs)[1], 8.0)
        zero = np.zeros_like(x0)
        pen = reference.loss_terms(x0, ident, ident, 0.0, "bs", obs, tv=(zero, zero, zero, zero, 2.0))[2]
        # D1 x0 is (-3, 4) in slice 0 and (0, -2) in slice 1; D2 x0 is (-3, 4) and (2, 0)
        self.assertAlmostEqual(pen, 0.5 * 2.0 * ((9 + 16 + 4) + (9 + 16 + 4)))

    def test_diff_by_hand(self):
        x = np.arange(6.0).reshape(2, 3, 1)
        np.testing.assert_array_equal(reference.diff(x, 1)[:, :, 0], [[3, 3, 3], [0, 0, 0]])
        np.testing.assert_array_equal(reference.diff(x, 2)[:, :, 0], [[1, 1, 0], [1, 1, 0]])

    def test_psnr_and_energy_by_hand(self):
        ref = np.random.default_rng(1).uniform(0, 1, (4, 4, 2))
        self.assertAlmostEqual(reference.psnr(ref + 0.1, ref), 20.0, places=9)
        np.testing.assert_allclose(reference.dft_energy_curve(np.diag([2.0, 1.0])[:, :, None]), [0.8, 1.0])

    def test_mask_count_and_init_cube(self):
        mask = reference.random_mask((5, 4, 3), 0.25, np.random.default_rng(0))
        self.assertEqual(mask.sum(), 15)
        cube = reference.hsi_cube((16, 12, 9), seed=3)
        self.assertEqual(cube.max(), 1.0)
        self.assertGreaterEqual(cube.min(), 0.0)
        sv = np.linalg.svd(np.fft.fft(cube, axis=2)[:, :, 1], compute_uv=False)
        self.assertLessEqual(int((sv > 1e-10 * sv[0]).sum()), 6)


def run_tiny(wl, seed=5):
    """One pass of a small workload instance through the benchmark phases."""
    work = tempfile.mkdtemp(prefix="selftest-")
    inputs = wl.prepare(seed, work)
    state = wl.setup(inputs)
    solved = wl.solve(inputs, state)
    produced = wl.output(inputs, state, solved)
    return work, wl.derive(inputs, state, solved, produced)


def rewrite_container(ctx, key, edit):
    t = workloads.tensor(ctx, key).copy()
    edit(t)
    reference.write_container(ctx["paths"][key], t)
    ctx["tensors"].pop(key)


def rewrite_rows(ctx, key, edit):
    with open(ctx["paths"][key], newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    table = edit(table)
    with open(ctx["paths"][key], "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


def first(mask, value):
    return tuple(int(i[0]) for i in np.nonzero(mask == value))


def bump_entry(arr, mask, value, by):
    arr[first(mask, value)] += by


def worse_last_loss(ctx):
    h = list(ctx["solved"]["history"])
    last = h[-1]
    h[-1] = replace(last, loss=replace(last.loss, l2_fidelity=h[0].loss.total + 1.0))
    ctx["solved"] = dict(ctx["solved"], history=h)


def learned_corruptions():
    """Corruptions every library workload's shared checks must catch."""
    return [
        ("loss_terms", lambda c: c.update(loss=replace(c["loss"], l1_lowrank=c["loss"].l1_lowrank * (1 + 1e-6)))),
        ("loss_terms", lambda c: c.update(loss=replace(c["loss"], l2_fidelity=c["loss"].l2_fidelity * (1 + 1e-6)))),
        ("loss_decreased", worse_last_loss),
        ("directional_derivative", lambda c: c.update(grads=[1.001 * g for g in c["grads"]])),
        ("container", lambda c: rewrite_container(c, "x", lambda t: t.__setitem__((0, 0, 0), t[0, 0, 0] + 1e-9))),
        ("diagnostics_rows", lambda c: rewrite_rows(c, "diag", lambda t: t[:-1])),
        ("diagnostics_rows", lambda c: rewrite_rows(c, "diag", lambda t: t[:1] + [[r[0], r[1], r[2], "1.5"] + r[4:] for r in t[1:]])),
        ("report_psnr", lambda c: c["produced"].update(report=replace(c["produced"]["report"], psnr=c["produced"]["report"].psnr + 1e-6))),
    ]


def tc_corruptions():
    def x_bump(value, by):
        def edit(c):
            x = c["solved"]["x"].copy()
            bump_entry(x, c["inputs"]["mask"], value, by)
            c["solved"] = dict(c["solved"], x=x)
        return edit

    def x0_edit(edit):
        def apply(c):
            x0 = c["state"]["x0"].copy()
            edit(x0, c["inputs"]["mask"], c["inputs"]["obs"])
            c["state"] = dict(c["state"], x0=x0)
        return apply

    def outside_range(x0, mask, obs):
        tube = np.nonzero(mask.any(axis=2) & ~mask.all(axis=2))
        i, j = int(tube[0][0]), int(tube[1][0])
        k = int(np.nonzero(mask[i, j] == 0.0)[0][0])
        x0[i, j, k] = obs[i, j][mask[i, j] == 1.0].max() + 0.5

    def empty_tube(x0, mask, obs):
        tube = np.nonzero(~mask.any(axis=2))
        x0[int(tube[0][0]), int(tube[1][0]), 0] += 1e-6

    return [
        ("observed_entries", x_bump(1.0, 1e-9)),
        ("unobserved_gf", x_bump(0.0, 1e-6)),
        ("init", x0_edit(lambda x0, mask, obs: bump_entry(x0, mask, 1.0, 1e-9))),
        ("init", x0_edit(outside_range)),
        ("init", x0_edit(empty_tube)),
    ] + learned_corruptions()


def rtc_corruptions():
    def sparse_at(value):
        return lambda c: rewrite_container(
            c, "sparse", lambda t: bump_entry(t, c["inputs"]["mask"], value, 1e-6))

    def x_bump(c):
        x = c["solved"]["x"].copy()
        x[0, 0, 0] += 1e-6
        c["solved"] = dict(c["solved"], x=x)

    return [("sparse_part", sparse_at(1.0)), ("sparse_part", sparse_at(0.0)), ("x_is_gf", x_bump)] + learned_corruptions()


def cli_corruptions():
    def curve(edit):
        return lambda c: rewrite_rows(c, "curve", lambda t: t[:1] + edit([list(r) for r in t[1:]]))

    def swap_first(r):
        r[0][1], r[1][1] = r[1][1], r[0][1]
        return r

    def scale(r):
        return [[a, repr(float(b) * (1 - 1e-6) if i < len(r) - 1 else float(b))] for i, (a, b) in enumerate(r)]

    def missing_output(c):
        path = c["paths"]["manifest"]
        with open(path, encoding="utf-8") as fh:
            m = json.load(fh)
        m["outputs"]["x"] = path + ".gone"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(m, fh)

    def bump(key):
        return lambda c: rewrite_container(c, key, lambda t: t.__setitem__((1, 1, 1), t[1, 1, 1] + 1e-9))

    return [
        ("ingest", bump("video")),
        ("sum", bump("fg")),
        ("metrics_psnr", lambda c: c.update(printed_psnr=c["printed_psnr"] + 1e-6)),
        ("accegy", curve(swap_first)),
        ("accegy", curve(lambda r: r[:-1] + [[r[-1][0], "0.999"]])),
        ("accegy", curve(scale)),
        ("diagnostics_rows", lambda c: rewrite_rows(c, "diag", lambda t: t[:-1])),
        ("manifest", missing_output),
    ]


TINY = (
    (workloads.TcHsi(dims=(12, 10, 6), iters=5, sr=0.3), tc_corruptions),
    (workloads.RtcTvSmall(dims=(8, 8, 6), iters=20, width=8, layers=2), rtc_corruptions),
    (workloads.CliBsVideo(dims=(10, 10, 8), iters=2, block=3), cli_corruptions),
)


class OutputChecks(unittest.TestCase):
    def test_each_check_catches_its_corruption(self):
        for wl, corruptions in TINY:
            work, ctx = run_tiny(wl)
            try:
                self.assertEqual({k: v for k, v in workloads.run_checks(wl, ctx).items() if v}, {}, wl.name)
                cases = corruptions()
                self.assertEqual({name for name, _ in cases}, set(wl.CHECKS), wl.name)
                for name, corrupt in cases:
                    work2, bad = run_tiny(wl)
                    try:
                        corrupt(bad)
                        failures = {k for k, v in workloads.run_checks(wl, bad).items() if v}
                        self.assertIn(name, failures, f"{wl.name}: corruption for {name} not caught")
                    finally:
                        shutil.rmtree(work2, ignore_errors=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ire_sim import (
    AngularField,
    angular_field,
    build_grid,
    eta_reference,
    export_heatmap,
    fiber_mode,
    field_from_atoms,
    sphere_norm,
    wavenumbers,
)
from ire_sim.angular import BATCH_ATOMS, _field_sums, _raster_nodes
from ire_sim.cli import main as cli_main
from ire_sim.retrieval import _prune

from conftest import (CANONICAL_INI, SPECIES, W_COLLECT, canonical_scenario,
                      largest_streamed_shell, read_meta)

KN = wavenumbers(SPECIES)

# A chunk size, of one block, below the atoms of a streamed shell, so the
# chunking tests cross chunk and block boundaries inside shells.
SMALL_CHUNK = 1 << 7

# Frozen from independent 1-D quadratures of the collection-mode far field
# exp(-(k w sin theta)^2 / 4) over the backward hemisphere:
#   MODE_SOLID_ANGLE  = integral |g_raw|^2 dOmega   (exact)
#   ETA_SINGLE_ATOM   = (integral g dOmega)^2 / (4 pi integral |g|^2 dOmega)
# and their small-angle counterparts; the paraxial values sit ~4e-5 and
# ~1.3e-5 relative away, which bounds how far the grid may drift.
MODE_SOLID_ANGLE = 8.21152796381662e-05
MODE_SOLID_ANGLE_PARAXIAL = 8.21142064552287e-05
ETA_SINGLE_ATOM = 2.6138788583086583e-05
ETA_SINGLE_ATOM_PARAXIAL = 2.613776371083614e-05


@pytest.fixture(scope="module")
def default_grid():
    return build_grid(KN.k_i, W_COLLECT)


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(KN.k_i, W_COLLECT, n_cap=128, n_base=96, n_phi=64)


@pytest.fixture(scope="module")
def field_10k(small_grid):
    scn = canonical_scenario(n_atoms_override=10_000, seed=4)
    return angular_field(scn, small_grid)


def test_grid_weights_integrate_the_sphere(default_grid):
    w = default_grid.node_weight
    assert float(w.sum()) == pytest.approx(4.0 * math.pi, rel=1e-12)
    ct2 = np.cos(default_grid.node_theta) ** 2
    assert float(np.sum(w * ct2)) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)
    assert np.all(np.diff(default_grid.level_theta) > 0)
    assert default_grid.n_nodes == default_grid.n_levels * default_grid.n_phi


def test_grid_guards():
    with pytest.raises(ValueError):
        build_grid(10.0, 1e-6)  # k w too small for a paraxial mode
    with pytest.raises(ValueError):
        build_grid(KN.k_i, W_COLLECT, n_phi=4)
    with pytest.raises(ValueError):
        build_grid(KN.k_i, W_COLLECT, cap_mult=1e6)  # cap wraps past the equator
    with pytest.raises(ValueError):
        # 16 cap nodes leave < 10 levels inside the mode half-width
        build_grid(KN.k_i, W_COLLECT, n_cap=16)


def test_mode_solid_angle_matches_quadrature(default_grid):
    th = default_grid.node_theta
    raw = np.where(
        th > 0.5 * math.pi, np.exp(-((KN.k_i * W_COLLECT * np.sin(th)) ** 2) / 4.0), 0.0
    )
    got = float(np.sum(default_grid.node_weight * raw * raw))
    assert got == pytest.approx(MODE_SOLID_ANGLE, rel=1e-9)
    # the small-angle closed form 4 pi / (k w)^2 / 2 sits ~1.3e-5 away
    assert got == pytest.approx(MODE_SOLID_ANGLE_PARAXIAL, rel=3e-5)


def test_fiber_mode_is_normalized_and_backward(default_grid):
    g = fiber_mode(default_grid)
    assert float(np.sum(default_grid.node_weight * g * g)) == pytest.approx(
        1.0, abs=1e-14
    )
    forward_nodes = default_grid.node_theta < 0.5 * math.pi
    assert np.all(g[forward_nodes] == 0.0)


# Grid settings drawn from a seeded generator: n_cap, n_base and n_phi
# 8 - 256, cap_mult 5 - 40, k_i w_i 50 - 2000 (log-uniform).
_DRAW = np.random.default_rng(41)
DRAWN_GRIDS = list(zip(_DRAW.integers(8, 257, 64).tolist(), _DRAW.integers(8, 257, 64).tolist(),
                       _DRAW.integers(8, 257, 64).tolist(), _DRAW.uniform(5.0, 40.0, 64).tolist(),
                       (10.0 ** _DRAW.uniform(math.log10(50.0), math.log10(2000.0), 64)).tolist()))


def test_drawn_grids_weigh_the_sphere_and_normalize_the_fiber_mode():
    # on every drawn setting build_grid accepts: the node weights sum to
    # 4 pi, and sum w |g|^2 = 1
    built = 0
    for n_cap, n_base, n_phi, cap_mult, kw in DRAWN_GRIDS:
        try:
            grid = build_grid(KN.k_i, kw / KN.k_i, n_cap=n_cap, n_base=n_base, n_phi=n_phi,
                              cap_mult=cap_mult)
        except ValueError:
            continue
        built += 1
        w, g = grid.node_weight, fiber_mode(grid)
        assert float(np.sum(w)) == pytest.approx(4.0 * math.pi, rel=1e-9)
        assert float(np.sum(w * g * g)) == pytest.approx(1.0, abs=1e-13)
    assert built >= 50


def test_single_atom_at_origin(default_grid):
    # A unit emitter at the origin radiates isotropically: |F| = (4 pi)^-1/2
    # everywhere, and the collection efficiency is the exact one-atom value.
    field = field_from_atoms(
        np.array([1.0 + 0.0j]), np.zeros((1, 3)), 0.0, KN.k_r, KN.k_i, default_grid
    )
    mag = np.abs(field.values)
    iso = 1.0 / math.sqrt(4.0 * math.pi)
    assert np.max(np.abs(mag - iso)) < 1e-12
    assert field.source_s2 == 1.0
    eta = eta_reference(field, default_grid)
    assert eta == pytest.approx(ETA_SINGLE_ATOM, rel=1e-6)
    # ~4e-5 above the small-angle value 2/(k w)^2: the gap is resolved
    assert eta == pytest.approx(ETA_SINGLE_ATOM_PARAXIAL, rel=2e-4)
    assert eta != pytest.approx(ETA_SINGLE_ATOM_PARAXIAL, rel=1e-5)


def test_two_atom_interference_fringes(default_grid):
    # Two unit-amplitude emitters at z = +-d: the field reduces in closed
    # form to cos(alpha - (k_r + k_i cos theta) d) fringes.
    d = 100e-6
    amp = np.array([1.0 + 0.0j, 1.0 + 0.0j])
    pos = np.array([[0.0, 0.0, d], [0.0, 0.0, -d]])
    field = field_from_atoms(amp, pos, 0.0, KN.k_r, KN.k_i, default_grid)
    th = default_grid.node_theta
    beta = (KN.k_r + KN.k_i * np.cos(th)) * d
    expect = 2.0 * np.cos(beta) / math.sqrt(4.0 * math.pi)
    np.testing.assert_allclose(field.values.real, expect, rtol=0, atol=1e-12)
    np.testing.assert_allclose(field.values.imag, 0.0, rtol=0, atol=1e-12)


def test_field_rotates_with_the_atoms(default_grid):
    # Rotating the emitters about z by a whole number of azimuthal grid
    # steps permutes each ring of nodes by that number of slots (theta = 0
    # tilt, so the read drive is rotation-invariant).
    n_phi = default_grid.n_phi
    shift = 7
    dphi = 2.0 * math.pi / n_phi
    x0, y0, z0 = 25e-6, -10e-6, 40e-6
    c, s = math.cos(shift * dphi), math.sin(shift * dphi)
    pos_a = np.array([[x0, y0, z0]])
    pos_b = np.array([[x0 * c - y0 * s, x0 * s + y0 * c, z0]])
    amp = np.array([0.8 - 0.3j])
    fa = field_from_atoms(amp, pos_a, 0.0, KN.k_r, KN.k_i, default_grid)
    fb = field_from_atoms(amp, pos_b, 0.0, KN.k_r, KN.k_i, default_grid)
    va = fa.values.reshape(default_grid.n_levels, n_phi)
    vb = fb.values.reshape(default_grid.n_levels, n_phi)
    np.testing.assert_allclose(np.roll(va, shift, axis=1), vb, rtol=0, atol=1e-10)


def _direct_field_sums(amplitudes, positions, skew_theta, k_r, k_i, grid):
    """The kernel node by node: one complex exponential of -k_i khat.r per atom and node."""
    th = grid.node_theta
    ph = np.tile(grid.phi, grid.n_levels)
    nx, ny, nz = np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)
    x, y, z = positions[:, 0], positions[:, 1], positions[:, 2]
    b = amplitudes * np.exp(-1j * k_r * (y * math.sin(skew_theta) + z * math.cos(skew_theta)))
    out = np.zeros(grid.n_nodes, dtype=np.complex128)
    for j in range(b.shape[0]):
        out += b[j] * np.exp(-1j * k_i * (nx * x[j] + ny * y[j] + nz * z[j]))
    return out


@pytest.mark.parametrize("n_phi", [64, 24, 33])
def test_field_matches_the_direct_phase(n_phi):
    # The kernel factors each level's axial phase out and, for even n_phi,
    # takes each azimuth's half-turn partner as a conjugate. That moves
    # the field by rounding only. A phase of size p carries a rounding
    # error of order eps p, so the unit is eps max_j (k_i + k_r)|r_j|
    # sum_j |A_j| / sqrt(4 pi); 200 atoms spread over millimetres in z, as
    # in the canonical cloud, read 0.014-0.022 of it over 4 clouds, 2 tilts
    # and n_phi = 64, 24, 33, with the kernel's phase factors from cis.
    rng = np.random.default_rng(23)
    pos = rng.normal(size=(200, 3)) * np.array([60e-6, 60e-6, 0.75e-3])
    amp = rng.normal(size=200) + 1j * rng.normal(size=200)
    skew = math.radians(2.0)
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=n_phi)
    got = field_from_atoms(amp, pos, skew, KN.k_r, KN.k_i, grid).values
    want = _direct_field_sums(amp, pos, skew, KN.k_r, KN.k_i, grid) / math.sqrt(4.0 * math.pi)
    unit = (
        np.finfo(float).eps
        * float(np.max((KN.k_i + KN.k_r) * np.linalg.norm(pos, axis=1)))
        * float(np.sum(np.abs(amp)))
        / math.sqrt(4.0 * math.pi)
    )
    assert float(np.max(np.abs(got - want))) <= 0.1 * unit


def _direct_phase_unit(amplitudes, positions):
    """The unit of test_field_matches_the_direct_phase, eps max_j (k_i + k_r)|r_j|
    sum_j |A_j| / sqrt(4 pi)."""
    return (
        np.finfo(float).eps
        * float(np.max((KN.k_i + KN.k_r) * np.linalg.norm(positions, axis=1)))
        * float(np.sum(np.abs(amplitudes)))
        / math.sqrt(4.0 * math.pi)
    )


def _random_atoms(n, seed):
    """n atoms of unit-normal amplitude, spread as in the canonical cloud."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3)) * np.array([60e-6, 60e-6, 0.75e-3])
    return rng.normal(size=n) + 1j * rng.normal(size=n), pos


@pytest.mark.parametrize("theta_deg", [0.0, 2.0])
@pytest.mark.parametrize("n_phi", [64, 24, 33])
def test_field_matches_the_direct_phase_at_batch_edges(n_phi, theta_deg):
    # The kernel adds atoms in batches of BATCH_ATOMS, two products each:
    # one atom, a short batch, whole batches and a short last batch all
    # stay within the direct phase's unit. With so few atoms the phases'
    # rounding errors do not average out as over 200, so the bound is the
    # whole unit (measured: at most 0.72 of it).
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=n_phi)
    skew = math.radians(theta_deg)
    for n in (1, BATCH_ATOMS - 1, BATCH_ATOMS, BATCH_ATOMS + 1, 2 * BATCH_ATOMS + 1):
        amp, pos = _random_atoms(n, 29 + n)
        got = field_from_atoms(amp, pos, skew, KN.k_r, KN.k_i, grid).values
        want = _direct_field_sums(amp, pos, skew, KN.k_r, KN.k_i, grid) / math.sqrt(4.0 * math.pi)
        assert float(np.max(np.abs(got - want))) <= _direct_phase_unit(amp, pos), n


def test_kernel_bits_do_not_follow_the_input_memory(small_grid):
    # The same atoms in fresh copies, in arrays offset by 1 and 3 elements
    # from their allocation, and in column-major order give the same bits.
    amp, pos = _random_atoms(2 * BATCH_ATOMS + 3, 37)
    skew = math.radians(2.0)
    want = _field_sums(amp, pos, skew, KN.k_r, KN.k_i, small_grid)
    variants = [(amp.copy(), pos.copy()), (amp, np.asfortranarray(pos))]
    for offset in (1, 3):
        a = np.empty(amp.size + offset, dtype=complex)[offset:]
        p = np.empty(pos.size + offset)[offset:].reshape(pos.shape)
        a[...], p[...] = amp, pos
        variants.append((a, p))
    for a, p in variants:
        np.testing.assert_array_equal(_field_sums(a, p, skew, KN.k_r, KN.k_i, small_grid), want)


def test_kernel_bits_do_not_follow_the_blas_thread_count():
    # Each batch is summed through BLAS products, whose thread count
    # --threads does not set: the field must read the same bits under one
    # and two BLAS threads, each in a fresh interpreter.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    code = (
        "import hashlib, math\n"
        "from test_angular import KN, W_COLLECT, _random_atoms\n"
        "from ire_sim import build_grid\n"
        "from ire_sim.angular import BATCH_ATOMS, _field_sums\n"
        "grid = build_grid(KN.k_i, W_COLLECT, n_cap=128, n_base=96, n_phi=64)\n"
        "amp, pos = _random_atoms(2 * BATCH_ATOMS + 3, 41)\n"
        "field = _field_sums(amp, pos, math.radians(2.0), KN.k_r, KN.k_i, grid)\n"
        "print(hashlib.sha256(field.tobytes()).hexdigest())\n"
    )
    digests = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=blas_threads)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 1
    assert digests[0] == digests[1]


def test_kernel_memory_stays_small(small_grid):
    # A call holds one batch's cos and sin (two 229 kB arrays on this
    # grid), the four sums per node and the field, never a per-atom or
    # per-batch copy of them (measured peak of a 64-atom call: 0.95 MB).
    amp, pos = _random_atoms(64, 31)
    _field_sums(amp, pos, 0.03, KN.k_r, KN.k_i, small_grid)
    tracemalloc.start()
    try:
        _field_sums(amp, pos, 0.03, KN.k_r, KN.k_i, small_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6


def test_field_from_atoms_validates_shapes(default_grid):
    with pytest.raises(ValueError):
        field_from_atoms(
            np.ones(2, dtype=complex), np.zeros((3, 3)), 0.0, KN.k_r, KN.k_i, default_grid
        )
    with pytest.raises(ValueError):
        field_from_atoms(
            np.ones(2, dtype=complex), np.zeros((2, 2)), 0.0, KN.k_r, KN.k_i, default_grid
        )


def test_angular_field_rejects_subsampling(small_grid):
    scn = canonical_scenario(n_atoms_override=100, mc_atoms=50)
    with pytest.raises(ValueError):
        angular_field(scn, small_grid)


def test_angular_field_thread_count_does_not_change_bits(small_blocks, small_chunks):
    scn = canonical_scenario(n_atoms_override=33_468, seed=6)
    # chunks smaller than a shell, so the threads split shells between them
    assert largest_streamed_shell(scn) >= 2 * small_chunks(small_blocks(SMALL_CHUNK))
    # even n_phi pairs each azimuth with its half-turn partner; odd has no pairs
    for n_phi in (24, 33):
        grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=n_phi)
        f1 = angular_field(scn, grid, threads=1)
        f3 = angular_field(scn, grid, threads=3)
        np.testing.assert_array_equal(f1.values, f3.values)
        assert f1.source_s2 == f3.source_s2


def test_chunking_does_not_change_the_field(small_grid, small_blocks, small_chunks):
    # angular_field in chunks must equal the one-shot field built from the
    # atoms it keeps, drawn through the public sampling path.
    from ire_sim import AtomSample, draw_sample, spinwave_amplitude

    scn = canonical_scenario(n_atoms_override=16_507, seed=8)
    assert largest_streamed_shell(scn) >= 2 * small_chunks(small_blocks(SMALL_CHUNK))
    streamed = angular_field(scn, small_grid)
    sample = draw_sample(scn)
    keep, _ = _prune(sample.r_initial, scn)
    kept = AtomSample(sample.r_initial[keep], sample.velocity[keep], sample.r_drifted[keep])
    assert len(kept) == streamed.n_kept
    amps = spinwave_amplitude(kept, scn)
    direct = field_from_atoms(amps, kept.r_drifted, scn.skew_theta, KN.k_r, KN.k_i, small_grid)
    np.testing.assert_allclose(direct.values, streamed.values, rtol=1e-12, atol=1e-14)
    assert direct.source_s2 == pytest.approx(streamed.source_s2, rel=1e-12)


def test_sphere_norm_reconciles_with_source_norm(field_10k, small_grid):
    # Total radiated power must match sum |A_j|^2: the quadrature samples
    # ~1e4 independent speckle grains, so a few percent of noise remains.
    ratio = sphere_norm(field_10k, small_grid) / field_10k.source_s2
    assert ratio == pytest.approx(1.0, abs=0.05)
    assert 0.0 <= eta_reference(field_10k, small_grid) <= 1.02


def test_collection_is_direction_selective(small_grid):
    # A compact cloud emits a strong coherent backward lobe; a fiber looking
    # the wrong way sees only the speckle floor, orders of magnitude down.
    from ire_sim import make_scenario
    from conftest import TEMP

    scn = make_scenario(
        SPECIES, 30e-6, TEMP, 60e-6, W_COLLECT, W_COLLECT,
        n_atoms_override=10_000, seed=4,
    )
    field = angular_field(scn, small_grid)
    eta_back = eta_reference(field, small_grid)
    # fiber_mode mirrored onto the forward hemisphere
    th = small_grid.node_theta
    g_fwd = np.where(
        th < 0.5 * math.pi, np.exp(-((small_grid.k_times_w * np.sin(th)) ** 2) / 4.0), 0.0
    )
    g_fwd /= math.sqrt(float(np.sum(small_grid.node_weight * g_fwd * g_fwd)))
    overlap = np.sum(small_grid.node_weight * g_fwd * field.values)
    eta_fwd = float(abs(overlap) ** 2 / field.source_s2)
    assert 0.01 <= eta_back <= 1.02
    assert eta_fwd < 1e-2 * eta_back


def test_eta_reference_stable_under_grid_refinement(small_grid, field_10k):
    fine_grid = build_grid(KN.k_i, W_COLLECT, n_cap=192, n_base=144, n_phi=96)
    scn = canonical_scenario(n_atoms_override=10_000, seed=4)
    eta_coarse = eta_reference(field_10k, small_grid)
    eta_fine = eta_reference(angular_field(scn, fine_grid), fine_grid)
    assert eta_coarse == pytest.approx(eta_fine, rel=5e-3)


def test_export_heatmap_rejects_a_zero_field(tmp_path, small_grid):
    zero = AngularField(
        values=np.zeros(small_grid.n_nodes, dtype=complex),
        source_s2=0.0,
        n_atoms=0,
        seed=0,
        n_kept=0,
    )
    with pytest.raises(ArithmeticError):
        export_heatmap(zero, small_grid, str(tmp_path), raster_n=16)
    assert not any(tmp_path.iterdir())


def test_export_heatmap_layout(tmp_path):
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=64, n_base=48, n_phi=32)
    scn = canonical_scenario(n_atoms_override=2000, seed=11)
    field = angular_field(scn, grid)
    unit = field.values / math.sqrt(sphere_norm(field, grid))
    raster_n = 64
    paths = export_heatmap(field, grid, str(tmp_path / "out"), raster_n=raster_n)
    names = [p.split("/")[-1] for p in paths]
    assert names == ["heatmap_sphere.csv", "heatmap_cap.csv"]

    sphere_text = Path(paths[0]).read_text().splitlines()
    assert sphere_text[0] == "theta_rad,phi_rad,re,im"
    assert len(sphere_text) == 1 + raster_n * raster_n
    rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)
    # row-major theta blocks on uniform midpoint axes
    theta_axis = (np.arange(raster_n) + 0.5) * math.pi / raster_n
    phi_axis = (np.arange(raster_n) + 0.5) * 2.0 * math.pi / raster_n
    np.testing.assert_allclose(rows[:, 0], np.repeat(theta_axis, raster_n), rtol=1e-15)
    np.testing.assert_allclose(rows[:, 1], np.tile(phi_axis, raster_n), rtol=1e-15)
    # every resampled cell is a verbatim copy of some node value
    values = rows[:, 2] + 1j * rows[:, 3]
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, values.size, size=20):
        assert np.min(np.abs(unit - values[idx])) == 0.0

    cap = np.loadtxt(paths[1], delimiter=",", skiprows=1)
    assert cap[:, 0].min() > grid.cap_theta_min
    assert cap[:, 0].max() < math.pi


def test_heatmap_meta_records_the_raster_scale(tmp_path, capsys):
    # ire-sim angular's record names the run and the norm the rasters were
    # divided by, so dropped_amplitude (raw units) can be scaled to them
    # from the files alone
    ini = tmp_path / "heatmap.ini"
    ini.write_text(
        CANONICAL_INI.replace("target_od     = 24.7", "n_atoms_override = 2000")
        .replace("seed      = 1", "seed      = 11")
        + "grid_n_cap  = 64\ngrid_n_base = 48\ngrid_n_phi  = 32\nraster_n    = 64\n"
    )
    assert cli_main(["angular", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    meta = read_meta(tmp_path / "out" / "heatmap_meta.txt")
    assert (meta["seed"], meta["n_atoms"], meta["raster_n"]) == ("11", "2000", "64")
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=64, n_base=48, n_phi=32)
    field = angular_field(canonical_scenario(n_atoms_override=2000, seed=11), grid)
    assert float(meta["sphere_norm"]) == sphere_norm(field, grid)


def test_export_heatmap_scales_the_raw_field(tmp_path):
    # the rasters hold values / sqrt(sphere_norm) of the raw field, bit for bit
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=64, n_base=48, n_phi=32)
    scn = canonical_scenario(n_atoms_override=100, seed=1)
    field = angular_field(scn, grid)
    unit = field.values / math.sqrt(sphere_norm(field, grid))
    raster_n = 16
    paths = export_heatmap(field, grid, str(tmp_path), raster_n=raster_n)
    phi_axis = (np.arange(raster_n) + 0.5) * 2.0 * math.pi / raster_n
    for path, lo in zip(paths[:2], (0.0, grid.cap_theta_min)):
        theta_axis = lo + (math.pi - lo) * (np.arange(raster_n) + 0.5) / raster_n
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        got = rows[:, 2] + 1j * rows[:, 3]
        np.testing.assert_array_equal(got, unit[_raster_nodes(grid, theta_axis, phi_axis)].ravel())


def test_export_heatmap_reruns_byte_identical(tmp_path):
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=64, n_base=48, n_phi=32)
    scn = canonical_scenario(n_atoms_override=500, seed=2)
    field = angular_field(scn, grid)
    p1 = export_heatmap(field, grid, str(tmp_path / "a"), raster_n=32)
    p2 = export_heatmap(field, grid, str(tmp_path / "b"), raster_n=32)
    for a, b in zip(p1[:2], p2[:2]):
        assert Path(a).read_bytes() == Path(b).read_bytes()


def test_export_heatmap_matches_savetxt_bytes(tmp_path):
    # The raster writer formats each value once and joins the strings; its
    # bytes must equal np.savetxt's of the same rows.
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=64, n_base=48, n_phi=32)
    scn = canonical_scenario(n_atoms_override=3000, seed=5)
    field = angular_field(scn, grid)
    unit = field.values / math.sqrt(sphere_norm(field, grid))
    raster_n = 40
    paths = export_heatmap(field, grid, str(tmp_path / "out"), raster_n=raster_n)
    phi_axis = (np.arange(raster_n) + 0.5) * 2.0 * math.pi / raster_n
    for path, lo in zip(paths[:2], (0.0, grid.cap_theta_min)):
        theta_axis = lo + (math.pi - lo) * (np.arange(raster_n) + 0.5) / raster_n
        v = unit[_raster_nodes(grid, theta_axis, phi_axis)].ravel()
        rows = np.column_stack(
            [np.repeat(theta_axis, raster_n), np.tile(phi_axis, raster_n), v.real, v.imag]
        )
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, rows, fmt="%.17g", delimiter=",",
                   header="theta_rad,phi_rad,re,im", comments="")
        assert Path(path).read_bytes() == ref.read_bytes()


def _savetxt_raster(path, unit, grid, raster_n, theta_lo):
    """np.savetxt's bytes of a raster's rows, built cell by cell through _raster_nodes."""
    phi_axis = (np.arange(raster_n) + 0.5) * 2.0 * math.pi / raster_n
    theta_axis = theta_lo + (math.pi - theta_lo) * (np.arange(raster_n) + 0.5) / raster_n
    v = unit[_raster_nodes(grid, theta_axis, phi_axis)].ravel()
    rows = np.column_stack(
        [np.repeat(theta_axis, raster_n), np.tile(phi_axis, raster_n), v.real, v.imag]
    )
    np.savetxt(path, rows, fmt="%.17g", delimiter=",",
               header="theta_rad,phi_rad,re,im", comments="")
    return path.read_bytes()


@pytest.mark.parametrize("n_phi, raster_n", [(32, 2), (32, 7), (32, 600), (33, 40)])
def test_export_heatmap_shares_rows_of_a_level_byte_for_byte(tmp_path, n_phi, raster_n):
    # The writer builds each polar level's cells once and reuses them for
    # every row mapped to that level. At raster_n = 600 the sphere raster
    # has more rows than the grid's 112 levels, so consecutive rows share a
    # level; n_phi = 33 is an odd azimuth count.
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=64, n_base=48, n_phi=n_phi)
    scn = canonical_scenario(n_atoms_override=3000, seed=5)
    field = angular_field(scn, grid)
    unit = field.values / math.sqrt(sphere_norm(field, grid))
    paths = export_heatmap(field, grid, str(tmp_path / "out"), raster_n=raster_n)
    for path, lo in zip(paths[:2], (0.0, grid.cap_theta_min)):
        ref = _savetxt_raster(tmp_path / "ref.csv", unit, grid, raster_n, lo)
        assert Path(path).read_bytes() == ref


def test_export_heatmap_memory_stays_flat(tmp_path):
    # One export at raster_n = 512 writes two 21 MB rasters but holds only
    # one polar level's cells at a time: a per-cell index array alone would
    # take 2 MB, a whole-raster string 21 MB (measured peak: 0.3 MB).
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=64, n_base=48, n_phi=32)
    scn = canonical_scenario(n_atoms_override=3000, seed=5)
    field = angular_field(scn, grid)
    tracemalloc.start()
    try:
        export_heatmap(field, grid, str(tmp_path), raster_n=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6

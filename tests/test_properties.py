"""Property tests of the transforms the search and the sampler run in
place of complex (2m)^d FFTs: the witness-screened DCT-I search of the
extension against DCT-only and FFT-only searches, the witness eigenvalues
and the float64 DCT-I against a long-double DCT-I, and the output-pruned
real sampler against the dense transform and across worker counts."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circembed import (CustomStationaryKernel, Embedding, GridSpec,
                       MaternKernel, NotPositiveDefiniteError, Spectrum,
                       batch_sample_values, draw_normal, embedding,
                       first_column, minimal_embedding, sample, sampler,
                       spectrum)
from conftest import (anisotropic_matern, dct_only_search, dense_transform,
                      fft_only_search)

import test_sampler
from test_sampler import chunks_of

# derandomized and without an example database, so every run checks the
# same examples
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# largest m0 and m_max / m0 per dimension, so no example runs long
M0_CAP = {1: 32, 2: 16, 3: 4}
M_MAX_FACTOR = {1: 16, 2: 8, 3: 8}


def screened_outcome(kernel, grid, tol, m_max, schedule):
    """The search's outcome in the layout of `dct_only_search`, its
    rounding bound, and the spectrum it returns (None when it runs out)."""
    try:
        emb, spec = minimal_embedding(kernel, grid, tol=tol, m_max=m_max,
                                      schedule=schedule)
    except NotPositiveDefiniteError as exc:
        return ((type(exc).__name__, exc.m_max, exc.min_eig),
                exc.rounding_bound, None)
    return (("ok", emb.m, spec.min_value, spec.certified),
            spec.rounding_bound, spec)


@st.composite
def search_cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    m0 = draw(st.integers(2, M0_CAP[d]))
    nu = draw(st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0, 8.0, math.inf]))
    lam = draw(st.floats(0.05, 2.0))
    tol = draw(st.sampled_from([0.0, 1e-13, 1e-12, 1e-10]))
    schedule = draw(st.sampled_from(["increment", "doubling"]))
    m_max = m0 * draw(st.integers(1, M_MAX_FACTOR[d]))
    return d, m0, nu, lam, tol, schedule, m_max


@st.composite
def floor_cases(draw):
    """Smooth kernels with lam/h0 in [4, 12], whose spectra reach the
    float64 rounding floor, so some verdicts fall inside the rounding
    bound, where the DCT-I and the FFT may disagree."""
    d = draw(st.sampled_from([1, 2]))
    m0 = draw(st.integers(4, M0_CAP[d]))
    nu = draw(st.sampled_from([8.0, 16.0, math.inf]))
    lam = draw(st.floats(4.0, 12.0)) / m0
    tol = draw(st.sampled_from([0.0, 1e-13]))
    schedule = draw(st.sampled_from(["increment", "doubling"]))
    m_max = m0 * draw(st.integers(2, M_MAX_FACTOR[d]))
    return d, m0, nu, lam, tol, schedule, m_max


@PROPERTY
@given(st.one_of(search_cases(), floor_cases()))
# float64-undecided verdicts, where the DCT-I and the FFT may disagree:
# an undecidable exhaustion where the FFT accepts uncertified (nu=8), an
# undecidable exhaustion on both and an uncertified Gaussian accept under
# unit steps
@example((2, 16, 8.0, 0.5, 0.0, "doubling", 1024))
@example((2, 32, math.inf, 0.5, 1e-13, "doubling", 512))
@example((2, 32, math.inf, 0.25, 1e-13, "increment", 128))
# non-power-of-two m0, where h0 is inexact and the block's radii are
# sqrt(|j|^2) / m0 with one rounding: accepts after up to two table
# growths, at m0 and an exhaustion at m_max = m0; at m0 = 48 the DCT-I
# accepts uncertified at m = 105, the FFT at 102
@example((2, 12, 1.5, 0.5, 0.0, "increment", 96))
@example((2, 24, 4.0, 0.25, 0.0, "doubling", 192))
@example((2, 48, math.inf, 0.25, 1e-13, "increment", 192))
@example((3, 12, 1.5, 0.5, 0.0, "increment", 96))
@example((3, 24, 1.5, 0.25, 0.0, "doubling", 96))
@example((3, 48, 1.5, 0.05, 0.0, "increment", 96))
@example((3, 48, 0.5, 0.25, 0.0, "increment", 48))
# the witness screen, which runs in d >= 2: under doubling the minimum's
# frequency jumps between attempts, from (1/3, 0, 0) at m = 12 to
# (1, 1, 1) at 48 and (1, 0, 0) at 36, and from (0, 1/4, 0) at m = 16 to
# (0, 1, 0) at 64 and (0, 0, 0.71) at 48, where the witness misses a
# failing attempt and the DCT-I decides it ...
@example((3, 12, 1.5, 0.5, 0.0, "doubling", 96))
@example((3, 16, 0.5, 0.5, 0.0, "doubling", 64))
# ... as it does under unit steps at m = 78, 94, 106, ..., 176
@example((2, 64, 4.0, 0.25, 0.0, "increment", 192))
# unit steps to an uncertified accept at m = 425, most attempts failed by
# the witness
@example((2, 64, 4.0, 0.5, 0.0, "increment", 6400))
def test_screened_search_equals_dct_only_search(case):
    d, m0, nu, lam, tol, schedule, m_max = case
    kernel = MaternKernel(1.0, lam, nu, d)
    grid = GridSpec(d=d, m0=m0)
    got, b, spec = screened_outcome(kernel, grid, tol, m_max, schedule)
    decided = []
    want = dct_only_search(kernel, grid, tol, m_max, schedule, decided)
    # the witness only fails attempts the DCT-I fails: outcome, m, minimum
    # and `certified` are the DCT-only search's, bit for bit
    assert got == want
    # where float64 certifies every verdict of both transforms, they agree
    if all(decided):
        fft = fft_only_search(kernel, grid, tol, m_max, schedule, decided)
        if all(decided):
            assert got[:2] == fft[:2]
    if spec is not None:
        emb = spec.embedding
        dense = spectrum(first_column(kernel, emb), emb,
                         column_rel_error=kernel.eval_rel_error)
        gap = np.abs(spec.values - np.maximum(dense.values, 0.0)).max()
        assert gap <= 2 * b


@pytest.mark.parametrize("schedule", ["increment", "doubling"])
@pytest.mark.parametrize("d,m0,m_max", [
    (2, 16, 1600),  # accepts at m = 47
    (3, 8, 800),    # accepts at m = 25; the witness fails most m >= 15
    (2, 8, 12),     # runs out at m_max
])
def test_lattice_search_equals_fft_only_search(schedule, d, m0, m_max):
    # a kernel that is not isotropic takes its blocks from the lattice,
    # and its rounding bound from `CustomStationaryKernel.eval_rel_error`
    kernel, grid = anisotropic_matern(d), GridSpec(d=d, m0=m0)
    got, b, _ = screened_outcome(kernel, grid, 0.0, m_max, schedule)
    want = fft_only_search(kernel, grid, 0.0, m_max, schedule)
    assert got[:2] + got[3:] == want[:2] + want[3:]
    assert abs(got[2] - want[2]) <= 2 * b


@st.composite
def witness_cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.integers(1, 100))
    freqs = [draw(st.lists(st.integers(0, m), min_size=1, max_size=4))
             for _ in range(d)]
    signed = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return d, m, freqs, signed, seed


@settings(PROPERTY, max_examples=60)
@given(witness_cases())
def test_witness_lies_within_its_bound_of_the_dct(case):
    # the reference is the DCT-I of the same float64 block in long double,
    # whose rounding bound b = u_ld log2(s) ||c||_1 is 2^11 times smaller
    # than float64's, so b_w itself must cover the witness's error
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("numpy long double is no wider than float64 here")
    d, m, freqs, signed, seed = case
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1.0 if signed else 0.0, 1.0, (m + 1,) * d)
    exact = scipy.fft.dctn(block.astype(np.longdouble), type=1)
    norm1 = embedding._norm1(block, exact.flat[0])
    b = float(np.finfo(np.longdouble).eps / 2) * d * math.log2(2 * m) * norm1
    gap = np.abs(embedding._witnesses(block, freqs) - exact[np.ix_(*freqs)])
    assert gap.max() <= embedding._witness_bound(m, d, norm1) + b


@st.composite
def block_cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.integers(1, {1: 4000, 2: 200, 3: 40}[d]))
    signed = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return d, m, signed, seed


@settings(PROPERTY, max_examples=60)
@given(block_cases())
def test_dct_lies_within_its_rounding_bound(case):
    # the search's eigenvalues are the float64 DCT-I of the folded block;
    # the reference is the DCT-I of the same block in long double, whose
    # own bound b_ld = u_ld log2(s) ||c||_1 is 2^11 times smaller
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("numpy long double is no wider than float64 here")
    d, m, signed, seed = case
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1.0 if signed else 0.0, 1.0, (m + 1,) * d)
    values = scipy.fft.dctn(block, type=1)
    exact = scipy.fft.dctn(block.astype(np.longdouble), type=1)
    emb = Embedding(GridSpec(d=d, m0=1), m)
    b = embedding._rounding_bound(embedding._norm1(block, values.flat[0]),
                                  emb, 0.0)
    norm1 = embedding._norm1(block, exact.flat[0])
    b_ld = float(np.finfo(np.longdouble).eps / 2) * math.log2(emb.s) * norm1
    assert float(np.abs(values - exact).max()) <= b + b_ld


@st.composite
def sampler_cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    m0 = draw(st.integers(1, {1: 12, 2: 6, 3: 3}[d]))
    m = m0 + draw(st.integers(0, {1: 12, 2: 6, 3: 3}[d]))
    n = draw(st.integers(1, 9))
    chunks = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, m0, m, n, chunks, seed


def random_spectrum(d, m0, m, seed):
    """A nonnegative spectrum of random values: the sampler's transform is
    checked on any such input, not only on circulant eigenvalues."""
    emb = Embedding(GridSpec(d=d, m0=m0), m)
    values = np.random.default_rng(seed).uniform(0.0, 2.0, emb.shape)
    return Spectrum(values=values, min_value=float(values.min()),
                    tolerance=0.0, embedding=emb)


@PROPERTY
@given(sampler_cases())
def test_pruned_batch_matches_dense_transform(case):
    d, m0, m, n, chunks, seed = case
    spec = random_spectrum(d, m0, m, seed)
    emb = spec.embedding
    with chunks_of(chunks[0]):
        got = batch_sample_values(spec, 0.0, n, seed)
    block = (slice(0, m0 + 1),) * d
    for i in range(n):
        y = draw_normal(emb.s, seed, i).reshape(emb.shape)
        want = dense_transform(np.sqrt(spec.values) * y)[block].reshape(-1)
        scale = np.abs(want).max()
        assert np.abs(got[i] - want).max() <= 1e-12 * scale


@PROPERTY
@given(sampler_cases(), st.booleans())
def test_batch_rows_are_chunk_invariant_and_equal_single_samples(case,
                                                                  lognormal):
    d, m0, m, n, chunks, seed = case
    spec = random_spectrum(d, m0, m, seed)
    emb = spec.embedding
    mean = np.random.default_rng(seed + 1).normal(size=emb.grid.n_points)
    rows = batch_sample_values(spec, mean, n, seed, lognormal=lognormal)
    for chunk in chunks:
        with chunks_of(chunk):
            again = batch_sample_values(spec, mean, n, seed,
                                        lognormal=lognormal)
        assert np.array_equal(again, rows)
    for i in range(n):
        one = sample(spec, mean, draw_normal(emb.s, seed, i),
                     lognormal=lognormal)
        assert np.array_equal(one, rows[i])


def workers(count):
    """Run the sampler with `count` threads, whatever the host has."""
    return mock.patch.object(sampler, "worker_count", return_value=count)


@settings(PROPERTY, max_examples=60)
@given(sampler_cases(), st.booleans(),
       st.sampled_from(["none", "constant", "array"]))
def test_batch_rows_are_bit_identical_at_any_worker_count(case, lognormal,
                                                          mean_kind):
    d, m0, m, n, chunks, seed = case
    spec = random_spectrum(d, m0, m, seed)
    emb = spec.embedding
    mean = {"none": None, "constant": 1.5,
            "array": np.random.default_rng(seed + 2).normal(
                size=emb.grid.n_points)}[mean_kind]
    with workers(1):
        rows = batch_sample_values(spec, mean, n, seed, lognormal=lognormal)
    for count in (1, 2, 3):
        for chunk in chunks:
            with workers(count), chunks_of(chunk):
                again = batch_sample_values(spec, mean, n, seed,
                                            lognormal=lognormal)
            assert np.array_equal(again, rows)
    with workers(3):
        for i in range(n):
            one = sample(spec, mean, draw_normal(emb.s, seed, i),
                         lognormal=lognormal)
            assert np.array_equal(one, rows[i])


def test_memory_follows_byte_budget_with_several_workers():
    with workers(3):
        test_sampler.TestBatchSample().test_memory_follows_byte_budget()


def test_rows_are_unchanged_by_many_threads_switching_fast():
    # eight threads, more than a small host has cores, switched every
    # microsecond
    spec = random_spectrum(1, 12, 20, 5)
    with workers(1):
        want = batch_sample_values(spec, 0.0, 64, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(8):
            got = batch_sample_values(spec, 0.0, 64, 5)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)

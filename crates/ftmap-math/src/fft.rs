//! Radix-2 FFTs (1-D and 3-D, complex and real-input) and FFT-based cyclic
//! correlation.
//!
//! PIPER scores each rotation with up to 22 independent 3-D correlations evaluated
//! via the convolution theorem: `corr(R, L) = IFFT( FFT(R) * conj(FFT(L)) )`.
//! This module supplies that baseline: an iterative radix-2 Cooley–Tukey transform,
//! adequate for the `O(N^3 log N)` vs `O(N^3 * n^3)` comparison the paper makes (FFT
//! correlation vs direct correlation for small probe grids), and kept
//! dependency-free because no FFT crate is on the approved offline list.
//!
//! [`Fft3Plan`] transforms one axis at a time, and every pass walks memory in unit
//! stride — for lattice kernels, access order rather than flop count decides the
//! speed. A pass applies each butterfly `(i, j)` with its twiddle `w` across a row of
//! *lanes*: independent 1-D transforms stored side by side, so the innermost loop
//! runs over contiguous lanes.
//!
//! * The **x pass** makes every `(y, z)` a lane and works through them 64 at a time,
//!   so one chunk's column of `nx` rows stays in L1.
//! * The **y pass** makes every `z` of one x-slab a lane.
//! * The **z pass** transposes a tile of rows into a fixed 16 KiB stack tile
//!   (`1024 / nz` rows), runs the same lane routine, and transposes back, so it adds
//!   no heap allocation.
//!
//! The plan computes its twiddle tables and each axis's bit-reversal swap list once,
//! in [`Fft3Plan::new`]. Every element sees exactly the operations, in exactly the
//! order, of one textbook 1-D transform per line (`fft_in_place`, with the
//! twiddles read from the tables), including the `1/n` scale after each inverse
//! pass, so results are bit-identical to that per-line path. A 1-D transform is the
//! one-lane case of the same routine.
//!
//! # Real input: the half spectrum
//!
//! Docking correlates real grids, whose spectra are conjugate-symmetric:
//! `F[-k] = conj(F[k])`. So the docking path keeps only the **half spectrum**, the
//! z-bins `0..=nz/2` of every `(x, y)`, stored `nx × ny × (nz/2 + 1)` with z fastest
//! (`index = (x * ny + y) * (nz/2 + 1) + kz`), and never computes or moves the other
//! half.
//!
//! * [`Fft3Plan::forward_real_padded_into`] packs each real z-row's even and odd
//!   samples into the real and imaginary parts of `nz/2` complex values, runs one
//!   length-`nz/2` transform over them (the z pass's tile and lane routine), and a
//!   split pass turns its output into the row's `nz/2 + 1` bins. The split's
//!   twiddles `W^k = e^{-2πik/nz}` are the stage-`nz` table that the complex
//!   transform reads, built by the same repeated multiplication. The y and x passes
//!   are the complex passes over `nz/2 + 1` lanes.
//! * [`Fft3Plan::inverse_real_into`] runs the inverse x and y passes in place, then
//!   per z-row the reverse split, one inverse length-`nz/2` transform and an unpack
//!   into a real `N³` grid in a caller-kept buffer.
//! * `nz = 1` is handled: the half spectrum is then the whole spectrum and the z
//!   step is a copy. Rows of more than 2048 samples do not fit the tile; the z
//!   step then transforms them one at a time in a heap row.
//!
//! What is bit-identical to what: the complex transform to the per-line path
//! above; the padded, skipping real forward to the unskipped real forward of the
//! zero-padded grid (below); and, because `piper-dock`'s FFT engines both run one
//! per-term routine over these calls, their correlation grids to each other.
//! The half spectrum agrees with the first `nz/2 + 1` z-bins of the complex
//! transform to rounding (`ε · log2 N³` times the input's size), not bit for bit:
//! the arithmetic differs. The complex [`Fft3Plan::transform_in_place`] is kept,
//! unchanged, because it is the transform the paper prices (its flop count is
//! [`Fft3Plan::flops_per_transform`]), a layer that other code measures, and the
//! reference the real transforms are tested against.
//!
//! The real forward transforms a compact grid zero-padded into the plan's
//! dimensions and skips the lines that are provably zero: the z-rows outside
//! `x < cx, y < cy` and the y-pass slabs `x ≥ cx`. It stays bit-identical to the
//! unskipped real forward of the padded grid because a radix-2 butterfly whose
//! inputs are `+0.0` yields `+0.0` through any finite twiddle: the product `0 · w`
//! is `±0.0`, and `+0 + (±0)` and `+0 - (±0)` are both `+0.0` in round-to-nearest.
//! The split pass ends each bin the same way (`+0 ± (±0)`, then `· 0.5`). The
//! kept spectrum is reset to `+0.0` first, so the skip holds whatever the buffer
//! held before.
//!
//! Sizes must be powers of two; [`next_pow2`] is used by the docking engine to pad
//! grids up to a legal transform size.

use crate::{Complex, Grid3, Real};

/// Elements in the z pass's stack tile: 16 KiB of [`Complex`].
const TILE: usize = 1024;

/// `(y, z)` lanes per x-pass chunk: at `nx = 32` a chunk's column is 32 KiB.
const X_LANES: usize = 64;

/// Returns the smallest power of two that is `>= n` (and at least 1).
pub fn next_pow2(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let mut p = 1usize;
    while p < n {
        p <<= 1;
    }
    p
}

/// Returns true if `n` is a power of two (and nonzero).
fn is_pow2(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward transform (negative exponent convention).
    Forward,
    /// Inverse transform (positive exponent, scaled by `1/N` at the end).
    Inverse,
}

/// In-place iterative radix-2 FFT over a power-of-two-length buffer.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
fn fft_in_place(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    assert!(is_pow2(n), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }

    for (i, j) in bit_reversal_swaps(n) {
        data.swap(i, j);
    }

    // Butterfly passes.
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2usize;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as Real;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }

    if dir == Direction::Inverse {
        let inv = 1.0 / n as Real;
        for x in data.iter_mut() {
            *x = x.scale(inv);
        }
    }
}

/// Convenience wrapper returning a transformed copy.
pub fn fft(data: &[Complex], dir: Direction) -> Vec<Complex> {
    let mut out = data.to_vec();
    fft_in_place(&mut out, dir);
    out
}

/// Per-stage twiddle-factor tables for one transform direction.
///
/// `stages[s]` holds the `len / 2` butterfly factors of the stage with length
/// `len = 2^(s+1)`. Each table is generated by the **same repeated
/// multiplication** (`w *= wlen` starting from `Complex::ONE`) that
/// [`fft_in_place`] performs per block, so a table-driven butterfly produces
/// bit-identical results to the on-the-fly path — the property the docking
/// engines' bit-identity contracts rely on.
#[derive(Debug, Clone)]
struct TwiddleTables {
    stages: Vec<Vec<Complex>>,
}

impl TwiddleTables {
    fn build(max_dim: usize, dir: Direction) -> Self {
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let mut stages = Vec::new();
        let mut len = 2usize;
        while len <= max_dim {
            let ang = sign * 2.0 * std::f64::consts::PI / len as Real;
            let wlen = Complex::cis(ang);
            let mut table = Vec::with_capacity(len / 2);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                table.push(w);
                w *= wlen;
            }
            stages.push(table);
            len <<= 1;
        }
        TwiddleTables { stages }
    }
}

/// The swaps `(i, j)`, `i < j`, of the length-`n` bit-reversal permutation.
fn bit_reversal_swaps(n: usize) -> Vec<(usize, usize)> {
    let mut swaps = Vec::new();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            swaps.push((i, j));
        }
    }
    swaps
}

/// The real-input z step's tile for rows of `m` complex values: the 16 KiB
/// stack tile, or one heap row when a row is longer than it.
fn row_tile<'t>(
    stack: &'t mut [Complex; TILE],
    heap: &'t mut Vec<Complex>,
    m: usize,
) -> &'t mut [Complex] {
    if m <= TILE {
        stack
    } else {
        heap.resize(m, Complex::ZERO);
        heap
    }
}

/// Radix-2 transforms of `lanes` independent length-`n` sequences stored
/// element-major: element `i` of lane `l` is `data[i * stride + l]`.
///
/// Each lane goes through the swaps, the butterflies (with the tabled
/// twiddles) and the inverse `1/n` scale of one [`fft_in_place`] call, in the
/// same order, so every lane's bits equal that call's.
fn fft_lanes(
    data: &mut [Complex],
    n: usize,
    stride: usize,
    lanes: usize,
    swaps: &[(usize, usize)],
    tables: &TwiddleTables,
    dir: Direction,
) {
    if n <= 1 {
        return;
    }
    for &(i, j) in swaps {
        let (head, tail) = data.split_at_mut(j * stride);
        head[i * stride..][..lanes].swap_with_slice(&mut tail[..lanes]);
    }
    let mut half = 1usize;
    for table in &tables.stages[..n.trailing_zeros() as usize] {
        for start in (0..n).step_by(2 * half) {
            for (k, &w) in table.iter().enumerate() {
                let (head, tail) = data.split_at_mut((start + k + half) * stride);
                let top = &mut head[(start + k) * stride..][..lanes];
                for (u, v) in top.iter_mut().zip(&mut tail[..lanes]) {
                    let a = *u;
                    let b = *v * w;
                    *u = a + b;
                    *v = a - b;
                }
            }
        }
        half *= 2;
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / n as Real;
        for i in 0..n {
            for x in &mut data[i * stride..][..lanes] {
                *x = x.scale(inv);
            }
        }
    }
}

/// A 3-D FFT plan for fixed power-of-two dimensions `(nx, ny, nz)`.
///
/// The plan precomputes its twiddle-factor tables for both directions and each
/// axis's bit-reversal swap list behind shared **immutable** state, so
/// transforms take `&self`: one cached plan can be shared across scheduler
/// workers (or borrowed out of a residency cache) without cloning per thread.
/// Data layout is row-major with `z` fastest: `index = (x * ny + y) * nz + z`,
/// matching [`crate::Grid3`].
#[derive(Debug, Clone)]
pub struct Fft3Plan {
    nx: usize,
    ny: usize,
    nz: usize,
    forward: TwiddleTables,
    inverse: TwiddleTables,
    /// Bit-reversal swap lists of the x, y and z axes, and of the length-`nz/2`
    /// transform the real-input z step runs.
    swaps: [Vec<(usize, usize)>; 4],
}

impl Fft3Plan {
    /// Creates a plan for the given dimensions.
    ///
    /// # Panics
    /// Panics if any dimension is not a power of two.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(
            is_pow2(nx) && is_pow2(ny) && is_pow2(nz),
            "FFT3 dimensions must be powers of two, got ({nx}, {ny}, {nz})"
        );
        let max_dim = nx.max(ny).max(nz);
        Fft3Plan {
            nx,
            ny,
            nz,
            forward: TwiddleTables::build(max_dim, Direction::Forward),
            inverse: TwiddleTables::build(max_dim, Direction::Inverse),
            swaps: [
                bit_reversal_swaps(nx),
                bit_reversal_swaps(ny),
                bit_reversal_swaps(nz),
                bit_reversal_swaps((nz / 2).max(1)),
            ],
        }
    }

    fn tables(&self, dir: Direction) -> &TwiddleTables {
        match dir {
            Direction::Forward => &self.forward,
            Direction::Inverse => &self.inverse,
        }
    }

    /// Bytes the plan's twiddle tables occupy — the figure a residency cache
    /// charges for keeping a shareable plan resident next to the transforms it
    /// produced.
    pub fn table_bytes(&self) -> usize {
        let per_dir: usize =
            self.forward.stages.iter().map(|s| s.len() * std::mem::size_of::<Complex>()).sum();
        2 * per_dir
    }

    /// Plan dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of elements the plan transforms.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of complex bins in the half spectrum, `nx · ny · (nz/2 + 1)`.
    fn half_len(&self) -> usize {
        self.nx * self.ny * (self.nz / 2 + 1)
    }

    /// True when the plan covers zero elements (never in practice; kept for API hygiene).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place 3-D transform of `data` (length must equal `self.len()`).
    ///
    /// Runs the z, y and x passes described in the [module docs](self), each
    /// across contiguous lanes. Takes `&self`: the twiddle tables and swap lists
    /// are immutable shared state and the z pass's transpose scratch is a fixed
    /// stack tile, so concurrent workers can transform through one shared plan
    /// without any per-call heap allocation.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan size.
    pub fn transform_in_place(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.len(), "FFT3 buffer length mismatch");
        let nz = self.nz;
        let tables = self.tables(dir);
        let z_swaps = &self.swaps[2];

        // z: transpose up to `TILE / nz` rows into the tile, lane-major.
        let rows_per_tile = TILE / nz;
        if rows_per_tile == 0 {
            // Rows longer than the tile: transform each in place, one lane.
            for row in data.chunks_exact_mut(nz) {
                fft_lanes(row, nz, 1, 1, z_swaps, tables, dir);
            }
        } else {
            let mut tile = [Complex::ZERO; TILE];
            for block in data.chunks_mut(rows_per_tile * nz) {
                let lanes = block.len() / nz;
                let tile = &mut tile[..block.len()];
                for (r, row) in block.chunks_exact(nz).enumerate() {
                    for (z, &v) in row.iter().enumerate() {
                        tile[z * lanes + r] = v;
                    }
                }
                fft_lanes(tile, nz, lanes, lanes, z_swaps, tables, dir);
                for (r, row) in block.chunks_exact_mut(nz).enumerate() {
                    for (z, v) in row.iter_mut().enumerate() {
                        *v = tile[z * lanes + r];
                    }
                }
            }
        }
        self.yx_passes(data, nz, dir, self.nx);
    }

    /// The half spectrum of `compact` zero-padded into the plan's dimensions and
    /// anchored at the origin, into a caller-kept buffer (see the
    /// [module docs](self)).
    ///
    /// `spectrum` is resized to `nx · ny · (nz/2 + 1)` and every element is
    /// overwritten, whatever it held before. With `(cx, cy, cz) = compact.dims()`,
    /// it skips the z-rows outside `x < cx, y < cy` and the y-pass slabs
    /// `x ≥ cx`, which hold only `+0.0`, so the result is bit-identical to the
    /// real forward of the zero-padded grid. A grid of the plan's own size skips
    /// nothing.
    ///
    /// # Panics
    /// Panics if `compact` is larger than the plan along any axis.
    pub fn forward_real_padded_into(&self, compact: &Grid3<Real>, spectrum: &mut Vec<Complex>) {
        self.forward_real_into(compact.as_slice(), compact.dims(), spectrum);
    }

    /// The half spectrum of the row-major real values of a `(cx, cy, cz)` block
    /// anchored at the origin, into `spectrum`, reset to `+0.0` first.
    fn forward_real_into(
        &self,
        values: &[Real],
        (cx, cy, cz): (usize, usize, usize),
        spectrum: &mut Vec<Complex>,
    ) {
        assert!(
            cx <= self.nx && cy <= self.ny && cz <= self.nz,
            "compact grid ({cx}, {cy}, {cz}) exceeds the plan's {:?}",
            self.dims()
        );
        assert_eq!(values.len(), cx * cy * cz, "compact grid length");
        // Every element, not just the new tail: the skipped lines must hold
        // `+0.0`, and a reused buffer holds its last transform.
        spectrum.clear();
        spectrum.resize(self.half_len(), Complex::ZERO);
        self.real_rows_forward(values, (cx, cy, cz), spectrum);
        self.yx_passes(spectrum, self.nz / 2 + 1, Direction::Forward, cx);
    }

    /// The real-input z step of the forward transform: each row `x < cx, y < cy`
    /// of `values` (its `cz` samples, `+0.0` beyond) becomes the `nz/2 + 1` bins
    /// of its spectrum row. Other rows are left as they are.
    fn real_rows_forward(
        &self,
        values: &[Real],
        (cx, cy, cz): (usize, usize, usize),
        spectrum: &mut [Complex],
    ) {
        let (ny, nz) = (self.ny, self.nz);
        let hz = nz / 2 + 1;
        if nz == 1 {
            for x in 0..cx {
                for y in 0..cy {
                    spectrum[x * ny + y] = Complex::from_real(values[x * cy + y]);
                }
            }
            return;
        }
        let m = nz / 2;
        let w = self.split_twiddles(Direction::Forward);
        let mut stack = [Complex::ZERO; TILE];
        let mut heap = Vec::new();
        let tile = row_tile(&mut stack, &mut heap, m);
        let rows_per_tile = tile.len() / m;
        for x in 0..cx {
            for y0 in (0..cy).step_by(rows_per_tile) {
                let lanes = rows_per_tile.min(cy - y0);
                let tile = &mut tile[..lanes * m];
                // Even samples into the real parts, odd into the imaginary, lane-major.
                tile.fill(Complex::ZERO);
                for r in 0..lanes {
                    let row = &values[(x * cy + y0 + r) * cz..][..cz];
                    for (j, pair) in row.chunks(2).enumerate() {
                        tile[j * lanes + r] =
                            Complex::new(pair[0], pair.get(1).copied().unwrap_or(0.0));
                    }
                }
                fft_lanes(tile, m, lanes, lanes, &self.swaps[3], &self.forward, Direction::Forward);
                // Split: X[k] = (e - i W^k o) / 2 with e = Z[k] + conj Z[m-k] and
                // o = Z[k] - conj Z[m-k]; X[0] and X[m] are real.
                for r in 0..lanes {
                    let bins = &mut spectrum[(x * ny + y0 + r) * hz..][..hz];
                    let z = |k: usize| tile[k * lanes + r];
                    let z0 = z(0);
                    bins[0] = Complex::new(z0.re + z0.im, 0.0);
                    bins[m] = Complex::new(z0.re - z0.im, 0.0);
                    for k in 1..m {
                        let (a, b) = (z(k), z(m - k).conj());
                        let (e, o) = (a + b, (a - b) * w[k]);
                        bins[k] = Complex::new(e.re + o.im, e.im - o.re).scale(0.5);
                    }
                }
            }
        }
    }

    /// Inverse of a half spectrum (laid out as [`Fft3Plan::forward_real_padded_into`]
    /// writes it) into a real grid of the plan's size, in a caller-kept buffer.
    ///
    /// `real` is resized to `nx · ny · nz` and every element is overwritten.
    /// `spectrum` is the inverse's workspace: the x and y passes run in place, so
    /// it holds neither input nor output afterwards. Only the half spectrum is
    /// read, so the imaginary parts of the z-bins `0` and `nz/2` (zero for the
    /// spectrum of a real grid) are taken as they come.
    ///
    /// # Panics
    /// Panics if `spectrum` is not `nx · ny · (nz/2 + 1)` long.
    pub fn inverse_real_into(&self, spectrum: &mut [Complex], real: &mut Vec<Real>) {
        assert_eq!(spectrum.len(), self.half_len(), "half spectrum length mismatch");
        self.yx_passes(spectrum, self.nz / 2 + 1, Direction::Inverse, self.nx);
        real.resize(self.len(), 0.0);
        let nz = self.nz;
        if nz == 1 {
            for (v, c) in real.iter_mut().zip(spectrum.iter()) {
                *v = c.re;
            }
            return;
        }
        let (m, hz) = (nz / 2, nz / 2 + 1);
        let w = self.split_twiddles(Direction::Inverse);
        let mut stack = [Complex::ZERO; TILE];
        let mut heap = Vec::new();
        let tile = row_tile(&mut stack, &mut heap, m);
        let rows_per_tile = tile.len() / m;
        let rows = self.nx * self.ny;
        for row0 in (0..rows).step_by(rows_per_tile) {
            let lanes = rows_per_tile.min(rows - row0);
            let tile = &mut tile[..lanes * m];
            // Reverse split: Z[k] = (e + i W^-k o) / 2 with e = X[k] + conj X[m-k]
            // and o = X[k] - conj X[m-k]: the even samples' spectrum plus `i`
            // times the odd samples'.
            for r in 0..lanes {
                let bins = &spectrum[(row0 + r) * hz..][..hz];
                for k in 0..m {
                    let (a, b) = (bins[k], bins[m - k].conj());
                    let (e, o) = (a + b, (a - b) * w[k]);
                    tile[k * lanes + r] = Complex::new(e.re - o.im, e.im + o.re).scale(0.5);
                }
            }
            fft_lanes(tile, m, lanes, lanes, &self.swaps[3], &self.inverse, Direction::Inverse);
            for r in 0..lanes {
                let row = &mut real[(row0 + r) * nz..][..nz];
                for (j, pair) in row.chunks_exact_mut(2).enumerate() {
                    let z = tile[j * lanes + r];
                    pair[0] = z.re;
                    pair[1] = z.im;
                }
            }
        }
    }

    /// The `nz/2` split twiddles `W^k`, `W = e^{∓2πi/nz}`: the twiddle table of
    /// the length-`nz` stage.
    fn split_twiddles(&self, dir: Direction) -> &[Complex] {
        &self.tables(dir).stages[self.nz.trailing_zeros() as usize - 1]
    }

    /// The y pass over slabs `x < cx` and the x pass over every lane, of a grid
    /// whose z rows are `row_len` long (`nz`, or `nz/2 + 1` for a half spectrum).
    fn yx_passes(&self, data: &mut [Complex], row_len: usize, dir: Direction, cx: usize) {
        let (nx, ny) = (self.nx, self.ny);
        let plane = ny * row_len;
        let tables = self.tables(dir);
        let [x_swaps, y_swaps, ..] = &self.swaps;

        // y: one x-slab at a time, every z a lane.
        for slab in data.chunks_exact_mut(plane).take(cx) {
            fft_lanes(slab, ny, row_len, row_len, y_swaps, tables, dir);
        }

        // x: every (y, z) a lane, `X_LANES` lanes at a time.
        for start in (0..plane).step_by(X_LANES) {
            let lanes = X_LANES.min(plane - start);
            fft_lanes(&mut data[start..], nx, plane, lanes, x_swaps, tables, dir);
        }
    }

    /// Cyclic cross-correlation of two real-valued volumes via the convolution theorem.
    ///
    /// Returns `corr[d] = sum_k a[k] * b[k + d]` with cyclic wrap-around, the PIPER
    /// scoring sum of Equation (1) when `a` is the receptor (protein) function and `b`
    /// the rotated-ligand function padded to the receptor grid size. Both transforms,
    /// the product and the inverse work on half spectra.
    pub fn correlate_real(&self, a: &[Real], b: &[Real]) -> Vec<Real> {
        assert_eq!(a.len(), self.len(), "correlate_real: lhs length mismatch");
        assert_eq!(b.len(), self.len(), "correlate_real: rhs length mismatch");

        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        self.forward_real_into(a, self.dims(), &mut fa);
        self.forward_real_into(b, self.dims(), &mut fb);
        // Correlation theorem: FFT(corr) = conj(FFT(a)) .* FFT(b)
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x = x.conj() * *y;
        }
        let mut corr = Vec::new();
        self.inverse_real_into(&mut fa, &mut corr);
        corr
    }

    /// Estimated floating-point operation count of one forward or inverse transform
    /// (used by the device-model cost accounting): `5 N log2 N` per complex FFT.
    ///
    /// This prices the paper's complex transform of all `N` points, not the host's
    /// arithmetic: the docking path's real-input transforms over the half spectrum
    /// do about half of it, and the modeled figures keep the paper's.
    pub fn flops_per_transform(&self) -> u64 {
        let n = self.len() as u64;
        let logn =
            (self.nx.trailing_zeros() + self.ny.trailing_zeros() + self.nz.trailing_zeros()) as u64;
        5 * n * logn.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Naive `O(N^2)` discrete Fourier transform: the oracle the FFT is checked against.
    fn dft_reference(data: &[Complex], dir: Direction) -> Vec<Complex> {
        let n = data.len();
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        let mut out = vec![Complex::ZERO; n];
        for (k, item) in out.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (t, &x) in data.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * t) as Real / n as Real;
                acc += x * Complex::cis(ang);
            }
            *item = if dir == Direction::Inverse { acc / n as Real } else { acc };
        }
        out
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    /// Random values in `[-1, 1)`, a quarter of them `+0.0` or `-0.0`.
    fn signed_zero_reals(n: usize, rng: &mut SmallRng) -> Vec<Real> {
        (0..n)
            .map(|_| match rng.gen_range(0u32..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// Random complex values whose parts include `+0.0` and `-0.0`.
    fn signed_zero_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let parts = signed_zero_reals(2 * n, &mut rng);
        parts.chunks_exact(2).map(|p| Complex::new(p[0], p[1])).collect()
    }

    /// The strided-column transform: one tabled 1-D transform per line, each
    /// y and x column gathered into a scratch buffer and scattered back. The
    /// bitwise oracle for [`Fft3Plan`]'s lane-blocked passes.
    fn reference_transform(plan: &Fft3Plan, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), plan.len());
        let (nx, ny, nz) = plan.dims();
        let index = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
        let tables = plan.tables(dir);
        let mut scratch = vec![Complex::ZERO; nx.max(ny).max(nz)];
        for x in 0..nx {
            for y in 0..ny {
                let base = index(x, y, 0);
                reference_fft_with_tables(&mut data[base..base + nz], dir, tables);
            }
        }
        for x in 0..nx {
            for z in 0..nz {
                for y in 0..ny {
                    scratch[y] = data[index(x, y, z)];
                }
                reference_fft_with_tables(&mut scratch[..ny], dir, tables);
                for y in 0..ny {
                    data[index(x, y, z)] = scratch[y];
                }
            }
        }
        for y in 0..ny {
            for z in 0..nz {
                for x in 0..nx {
                    scratch[x] = data[index(x, y, z)];
                }
                reference_fft_with_tables(&mut scratch[..nx], dir, tables);
                for x in 0..nx {
                    data[index(x, y, z)] = scratch[x];
                }
            }
        }
    }

    /// [`fft_in_place`] with the twiddles read from `tables`.
    fn reference_fft_with_tables(data: &mut [Complex], dir: Direction, tables: &TwiddleTables) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut len = 2usize;
        let mut stage = 0usize;
        while len <= n {
            let table = &tables.stages[stage];
            for start in (0..n).step_by(len) {
                for (k, &w) in table.iter().enumerate() {
                    let u = data[start + k];
                    let v = data[start + k + len / 2] * w;
                    data[start + k] = u + v;
                    data[start + k + len / 2] = u - v;
                }
            }
            len <<= 1;
            stage += 1;
        }
        if dir == Direction::Inverse {
            let inv = 1.0 / n as Real;
            for x in data.iter_mut() {
                *x = x.scale(inv);
            }
        }
    }

    /// The first element whose bits differ, as a message.
    fn bit_mismatch(got: &[Complex], want: &[Complex]) -> Option<String> {
        assert_eq!(got.len(), want.len());
        got.iter().zip(want).enumerate().find_map(|(i, (a, b))| {
            let same = a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits();
            (!same).then(|| format!("element {i}: {a:?} vs {b:?}"))
        })
    }

    /// Transforms a seeded signal with `±0.0` parts through the plan and
    /// through the strided reference; the first bit mismatch, if any.
    fn compare_with_reference(
        dims: (usize, usize, usize),
        dir: Direction,
        seed: u64,
    ) -> Option<String> {
        let plan = Fft3Plan::new(dims.0, dims.1, dims.2);
        let signal = signed_zero_signal(plan.len(), seed);
        let mut got = signal.clone();
        plan.transform_in_place(&mut got, dir);
        let mut want = signal;
        reference_transform(&plan, &mut want, dir);
        bit_mismatch(&got, &want).map(|m| format!("{dims:?} {dir:?}: {m}"))
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(17), 32);
        assert_eq!(next_pow2(128), 128);
    }

    #[test]
    fn is_pow2_values() {
        assert!(!is_pow2(0));
        assert!(is_pow2(1));
        assert!(is_pow2(64));
        assert!(!is_pow2(48));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut data = vec![Complex::ZERO; 6];
        fft_in_place(&mut data, Direction::Forward);
    }

    #[test]
    fn fft_matches_dft_reference() {
        for &n in &[2usize, 4, 8, 16, 32] {
            let signal = random_signal(n, n as u64);
            let fast = fft(&signal, Direction::Forward);
            let slow = dft_reference(&signal, Direction::Forward);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(approx_eq(a.re, b.re, 1e-8), "n={n}: {a:?} vs {b:?}");
                assert!(approx_eq(a.im, b.im, 1e-8), "n={n}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn fft_round_trip_recovers_signal() {
        let signal = random_signal(64, 7);
        let mut data = signal.clone();
        fft_in_place(&mut data, Direction::Forward);
        fft_in_place(&mut data, Direction::Inverse);
        for (a, b) in data.iter().zip(&signal) {
            assert!(approx_eq(a.re, b.re, 1e-9));
            assert!(approx_eq(a.im, b.im, 1e-9));
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::ZERO; 16];
        data[0] = Complex::ONE;
        fft_in_place(&mut data, Direction::Forward);
        for c in &data {
            assert!(approx_eq(c.re, 1.0, 1e-12));
            assert!(approx_eq(c.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn fft_linearity() {
        let a = random_signal(32, 1);
        let b = random_signal(32, 2);
        let summed: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a, Direction::Forward);
        let fb = fft(&b, Direction::Forward);
        let fsum = fft(&summed, Direction::Forward);
        for i in 0..32 {
            let expect = fa[i] + fb[i];
            assert!(approx_eq(fsum[i].re, expect.re, 1e-9));
            assert!(approx_eq(fsum[i].im, expect.im, 1e-9));
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let signal = random_signal(128, 3);
        let spectrum = fft(&signal, Direction::Forward);
        let time_energy: Real = signal.iter().map(|c| c.norm_sq()).sum();
        let freq_energy: Real = spectrum.iter().map(|c| c.norm_sq()).sum::<Real>() / 128.0;
        assert!(approx_eq(time_energy, freq_energy, 1e-9));
    }

    #[test]
    fn tabled_fft_is_bit_identical_to_direct_path() {
        // The twiddle tables replay the exact `w *= wlen` recurrence of
        // `fft_in_place`, so an `(n, 1, 1)` plan — the one-lane case of the
        // lane routine — must match it to the last bit: the contract every
        // cached/shared plan depends on.
        for &n in &[2usize, 8, 32, 128] {
            for dir in [Direction::Forward, Direction::Inverse] {
                let signal = random_signal(n, 1000 + n as u64);
                let mut direct = signal.clone();
                fft_in_place(&mut direct, dir);
                let mut tabled = signal;
                Fft3Plan::new(n, 1, 1).transform_in_place(&mut tabled, dir);
                assert_eq!(bit_mismatch(&tabled, &direct), None, "n={n} {dir:?}");
            }
        }
    }

    #[test]
    fn every_axis_size_matches_the_strided_reference() {
        // Each size 1..=64 on each axis, the others small; a 64³ cube; and a
        // z axis longer than the z pass's tile, which transforms rows in place.
        let mut shapes = vec![(64, 64, 64), (1, 2, 2048), (2, 1, 2048)];
        for e in 0..=6 {
            let s = 1 << e;
            shapes.extend([(s, 2, 4), (4, s, 2), (2, 4, s)]);
        }
        for (i, dims) in shapes.into_iter().enumerate() {
            for dir in [Direction::Forward, Direction::Inverse] {
                assert_eq!(compare_with_reference(dims, dir, i as u64), None);
            }
        }
    }

    #[test]
    fn positive_zero_lines_stay_positive_zero() {
        // Why the footprint skip is exact: for every twiddle of every stage up
        // to length 64, a butterfly of `+0.0` inputs yields `+0.0` outputs —
        // the product `0 · w` is a signed zero and `+0 ± (±0)` is `+0` — and
        // the inverse `1/n` scale keeps `+0.0`. So whole transforms of `+0.0`
        // lines, in either direction, are `+0.0` bit for bit.
        for dir in [Direction::Forward, Direction::Inverse] {
            for table in &TwiddleTables::build(64, dir).stages {
                for &w in table {
                    let product = Complex::ZERO * w;
                    for out in [Complex::ZERO + product, Complex::ZERO - product] {
                        assert_eq!((out.re.to_bits(), out.im.to_bits()), (0, 0), "w = {w:?}");
                    }
                }
            }
            let plan = Fft3Plan::new(8, 16, 32);
            let mut data = vec![Complex::ZERO; plan.len()];
            plan.transform_in_place(&mut data, dir);
            assert_eq!(bit_mismatch(&data, &vec![Complex::ZERO; plan.len()]), None, "{dir:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lane-blocked passes equal the strided per-column reference bit
        /// for bit, for random axis sizes in {1, 2, 4, …, 64} (at most 2^15
        /// elements), both directions, on data that includes `±0.0`.
        #[test]
        fn lane_blocked_transform_matches_strided_reference(
            exps in prop::array::uniform3(0u32..7),
            inverse in 0u32..2,
            seed in 0u64..u64::MAX,
        ) {
            prop_assume!(exps.iter().sum::<u32>() <= 15);
            let dims = (1usize << exps[0], 1usize << exps[1], 1usize << exps[2]);
            let dir = if inverse == 1 { Direction::Inverse } else { Direction::Forward };
            let mismatch = compare_with_reference(dims, dir, seed);
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        }

        /// The padded, skipping forward equals the unskipped real forward of
        /// the zero-padded grid bit for bit — for compact sizes up to 8 on each
        /// axis, plans up to 4× larger, and `±0.0` entries inside the footprint.
        #[test]
        fn forward_real_padded_matches_the_zero_padded_reference(
            compact in prop::array::uniform3(1usize..9),
            growth in prop::array::uniform3(0u32..3),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (cx, cy, cz) = (compact[0], compact[1], compact[2]);
            let values = signed_zero_reals(cx * cy * cz, &mut rng);
            let grid = Grid3::from_vec(cx, cy, cz, values);
            let dim = |c: usize, g: u32| next_pow2(c) << g;
            let plan = Fft3Plan::new(dim(cx, growth[0]), dim(cy, growth[1]), dim(cz, growth[2]));

            let got = forward_real(&plan, &grid);
            let mismatch = bit_mismatch(&got, &unskipped_forward(&plan, &grid));
            prop_assert!(mismatch.is_none(), "{:?}: {}", plan.dims(), mismatch.unwrap_or_default());
        }

        /// (a) The half spectrum equals the first `nz/2 + 1` z-bins of the
        /// complex transform, and (b) the real inverse of it returns the grid,
        /// both within `8 ε log2(N³) Σ|x|`, for axis sizes in {1, 2, …, 64} (at
        /// most 2^15 points) on data with `±0.0` values.
        #[test]
        fn real_transforms_match_the_complex_transform(
            exps in prop::array::uniform3(0u32..7),
            seed in 0u64..u64::MAX,
        ) {
            prop_assume!(exps.iter().sum::<u32>() <= 15);
            let dims = (1usize << exps[0], 1usize << exps[1], 1usize << exps[2]);
            let error = real_transform_error(dims, seed);
            prop_assert!(error.is_none(), "{:?}: {}", dims, error.unwrap_or_default());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Kept buffers change no bit: `forward_real_padded_into` over a buffer
        /// of NaN, `-0.0`, huge or random values, shorter or longer than the
        /// half spectrum, equals the unskipped real forward of the zero-padded
        /// grid; and `inverse_real_into` over such a real buffer equals the
        /// inverse into a fresh one.
        #[test]
        fn forward_real_padded_into_ignores_what_the_buffer_held(
            compact in prop::array::uniform3(1usize..9),
            growth in prop::array::uniform3(0u32..3),
            fill in 0u32..4,
            len_delta in -600i64..600,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (cx, cy, cz) = (compact[0], compact[1], compact[2]);
            let grid = Grid3::from_vec(cx, cy, cz, signed_zero_reals(cx * cy * cz, &mut rng));
            let dim = |c: usize, g: u32| next_pow2(c) << g;
            let plan = Fft3Plan::new(dim(cx, growth[0]), dim(cy, growth[1]), dim(cz, growth[2]));

            let garbage = match fill {
                0 => Real::NAN,
                1 => -0.0,
                2 => -1e300,
                _ => rng.gen_range(-1.0..1.0),
            };
            let sized = |len: usize| (len as i64 + len_delta).max(0) as usize;
            let mut kept = vec![Complex::new(garbage, -garbage); sized(plan.half_len())];
            plan.forward_real_padded_into(&grid, &mut kept);
            let want = unskipped_forward(&plan, &grid);
            let mismatch = bit_mismatch(&kept, &want);
            prop_assert!(mismatch.is_none(), "{:?}: {}", plan.dims(), mismatch.unwrap_or_default());

            let mut kept_real = vec![garbage; sized(plan.len())];
            plan.inverse_real_into(&mut kept, &mut kept_real);
            let mut fresh = Vec::new();
            plan.inverse_real_into(&mut want.clone(), &mut fresh);
            let same = kept_real.iter().map(|v| v.to_bits()).eq(fresh.iter().map(|v| v.to_bits()));
            prop_assert!(same, "{:?}: inverse into a kept buffer", plan.dims());
        }
    }

    /// The padded forward into a fresh buffer.
    fn forward_real(plan: &Fft3Plan, grid: &Grid3<Real>) -> Vec<Complex> {
        let mut spectrum = Vec::new();
        plan.forward_real_padded_into(grid, &mut spectrum);
        spectrum
    }

    /// The real forward of `grid` zero-padded into the plan's size, with
    /// nothing skipped.
    fn unskipped_forward(plan: &Fft3Plan, grid: &Grid3<Real>) -> Vec<Complex> {
        let (nx, ny, nz) = plan.dims();
        forward_real(plan, &grid.zero_padded(nx, ny, nz))
    }

    /// Checks (a) and (b) of `real_transforms_match_the_complex_transform` on a
    /// seeded real grid of `dims` with `±0.0` values; the first failure, if any.
    fn real_transform_error(dims: (usize, usize, usize), seed: u64) -> Option<String> {
        let (nx, ny, nz) = dims;
        let plan = Fft3Plan::new(nx, ny, nz);
        let mut rng = SmallRng::seed_from_u64(seed);
        let grid = Grid3::from_vec(nx, ny, nz, signed_zero_reals(plan.len(), &mut rng));
        let l1: Real = grid.as_slice().iter().map(|v| v.abs()).sum();
        let tol = 8.0 * Real::EPSILON * (plan.len() as Real).log2().max(1.0) * l1;

        let mut half = forward_real(&plan, &grid);
        let mut full: Vec<Complex> =
            grid.as_slice().iter().map(|&v| Complex::from_real(v)).collect();
        plan.transform_in_place(&mut full, Direction::Forward);
        let hz = nz / 2 + 1;
        for (i, got) in half.iter().enumerate() {
            let want = full[i / hz * nz + i % hz];
            if (*got - want).norm() > tol {
                return Some(format!("bin {i}: {got:?} vs {want:?} (±{tol:e})"));
            }
        }

        let mut back = Vec::new();
        plan.inverse_real_into(&mut half, &mut back);
        let worst = back.iter().zip(grid.as_slice()).map(|(a, b)| (a - b).abs()).enumerate();
        let (i, err) = worst.fold((0, 0.0), |m, e| if e.1 > m.1 { e } else { m });
        (err > tol).then(|| format!("round trip voxel {i}: off by {err:e} (±{tol:e})"))
    }

    #[test]
    fn real_transforms_hold_on_the_named_shapes() {
        // The docking scales 32³ and 64³, thin and flat shapes, `nz = 1` and
        // `nz = 2` (the half spectrum is then the whole spectrum), and rows
        // longer than the z tile, which the z step transforms one at a time in
        // a heap row.
        let shapes = [
            (1, 2, 4),
            (2, 2, 2),
            (4, 8, 16),
            (32, 32, 32),
            (64, 64, 64),
            (4, 4, 1),
            (1, 1, 1),
            (2, 1, 2),
            (1, 2, 2048),
            (1, 1, 4096),
        ];
        for (i, dims) in shapes.into_iter().enumerate() {
            assert_eq!(real_transform_error(dims, i as u64), None, "{dims:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the plan")]
    fn forward_real_padded_rejects_an_oversized_grid() {
        let _ = forward_real(&Fft3Plan::new(4, 4, 4), &Grid3::new(4, 8, 4));
    }

    #[test]
    #[should_panic(expected = "half spectrum length")]
    fn inverse_real_rejects_a_full_spectrum() {
        let plan = Fft3Plan::new(4, 4, 4);
        plan.inverse_real_into(&mut vec![Complex::ZERO; plan.len()], &mut Vec::new());
    }

    #[test]
    fn shared_plan_transforms_concurrently() {
        // `&self` transforms: many threads share one plan without cloning.
        let plan = std::sync::Arc::new(Fft3Plan::new(8, 8, 8));
        assert!(plan.table_bytes() > 0);
        let signal: Vec<Complex> = random_signal(plan.len(), 17);
        let expected = {
            let mut data = signal.clone();
            plan.transform_in_place(&mut data, Direction::Forward);
            data
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let plan = std::sync::Arc::clone(&plan);
                let signal = signal.clone();
                std::thread::spawn(move || {
                    let mut data = signal;
                    plan.transform_in_place(&mut data, Direction::Forward);
                    data
                })
            })
            .collect();
        for handle in handles {
            let got = handle.join().expect("worker panicked");
            for (a, b) in got.iter().zip(&expected) {
                assert!(a.re.to_bits() == b.re.to_bits());
                assert!(a.im.to_bits() == b.im.to_bits());
            }
        }
    }

    #[test]
    fn fft3_round_trip() {
        let plan = Fft3Plan::new(4, 8, 4);
        let mut rng = SmallRng::seed_from_u64(11);
        let original: Vec<Complex> =
            (0..plan.len()).map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0)).collect();
        let mut data = original.clone();
        plan.transform_in_place(&mut data, Direction::Forward);
        plan.transform_in_place(&mut data, Direction::Inverse);
        for (a, b) in data.iter().zip(&original) {
            assert!(approx_eq(a.re, b.re, 1e-9));
            assert!(approx_eq(a.im, b.im, 1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn fft3_rejects_bad_dims() {
        let _ = Fft3Plan::new(3, 4, 4);
    }

    /// Brute-force cyclic correlation oracle.
    fn direct_cyclic_correlation(
        a: &[Real],
        b: &[Real],
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> Vec<Real> {
        let idx = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
        let mut out = vec![0.0; a.len()];
        for dx in 0..nx {
            for dy in 0..ny {
                for dz in 0..nz {
                    let mut acc = 0.0;
                    for x in 0..nx {
                        for y in 0..ny {
                            for z in 0..nz {
                                let xx = (x + dx) % nx;
                                let yy = (y + dy) % ny;
                                let zz = (z + dz) % nz;
                                acc += a[idx(x, y, z)] * b[idx(xx, yy, zz)];
                            }
                        }
                    }
                    out[idx(dx, dy, dz)] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn fft_correlation_matches_direct() {
        let (nx, ny, nz) = (4usize, 4usize, 8usize);
        let n = nx * ny * nz;
        let mut rng = SmallRng::seed_from_u64(21);
        let a: Vec<Real> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<Real> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let plan = Fft3Plan::new(nx, ny, nz);
        let via_fft = plan.correlate_real(&a, &b);
        let direct = direct_cyclic_correlation(&a, &b, nx, ny, nz);
        for (f, d) in via_fft.iter().zip(&direct) {
            assert!(approx_eq(*f, *d, 1e-7), "{f} vs {d}");
        }
    }

    #[test]
    fn flops_estimate_monotone_in_size() {
        let small = Fft3Plan::new(4, 4, 4).flops_per_transform();
        let large = Fft3Plan::new(8, 8, 8).flops_per_transform();
        assert!(large > small);
    }
}

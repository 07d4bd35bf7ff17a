//! What this box can do, so a kernel's rate can be read against a ceiling:
//! a STREAM-style triad for memory bandwidth and a register-resident
//! multiply-add loop for peak arithmetic. Both are built with the same
//! portable release flags as the kernels they are compared to, so the
//! arithmetic ceiling is the *portable-build* peak (separate multiply and
//! add, whatever width the compiler vectorises to), not the chip's fused
//! peak.

use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Triad bandwidth, counting 24 bytes per element (two reads, one
    /// write), the STREAM convention.
    pub stream_gbs: f64,
    pub fma_gflops: f64,
}

impl Ceilings {
    /// Largest relative difference between two probe runs. Above
    /// [`NOISY_DRIFT`] a neighbour was busy during the run: re-run it.
    pub fn drift(&self, other: &Ceilings) -> f64 {
        let rel = |a: f64, b: f64| (a - b).abs() / a.max(b);
        rel(self.stream_gbs, other.stream_gbs).max(rel(self.fma_gflops, other.fma_gflops))
    }
}

pub const NOISY_DRIFT: f64 = 0.10;

/// Elements per triad array: 3 x 32 MiB, far beyond any cache here.
const TRIAD_LEN: usize = 4 << 20;
const TRIAD_REPS: usize = 5;
const FMA_LANES: usize = 32;
const FMA_ITERS: usize = 4_000_000;
const FMA_REPS: usize = 3;

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn probe() -> Ceilings {
    let b = vec![1.0f64; TRIAD_LEN];
    let c = vec![2.0f64; TRIAD_LEN];
    let mut a = vec![0.0f64; TRIAD_LEN];
    let s = black_box(3.0);
    let triad = best_secs(TRIAD_REPS, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
    });

    let (m, k) = (black_box(0.999_999_9), black_box(1e-9));
    let fma = best_secs(FMA_REPS, || {
        let mut acc = [1.0f64; FMA_LANES];
        for _ in 0..FMA_ITERS {
            for x in &mut acc {
                *x = *x * m + k;
            }
        }
        black_box(acc);
    });

    Ceilings {
        stream_gbs: 24.0 * TRIAD_LEN as f64 / triad / 1e9,
        fma_gflops: 2.0 * (FMA_LANES * FMA_ITERS) as f64 / fma / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_relative_to_the_larger_reading() {
        let a = Ceilings { stream_gbs: 10.0, fma_gflops: 20.0 };
        let b = Ceilings { stream_gbs: 9.0, fma_gflops: 20.0 };
        assert!((a.drift(&b) - 0.1).abs() < 1e-12);
        assert_eq!(a.drift(&a), 0.0);
    }
}

//! Machine and kernel probes measured in the same run as the workload: FMA peak,
//! streaming bandwidth, packed GEMM, pool dispatch and the autotuner probe.

use crate::stats::{median, Json, Metrics};
use bsr_linalg::blas3;
use bsr_linalg::matrix::Matrix;
use bsr_linalg::Trans;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Last-level cache size in bytes as the CPU reports it through CPUID leaf 4, with
/// where the number came from.
pub fn llc_bytes() -> (usize, &'static str) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let mut best = (0usize, 0u32);
        for sub in 0..16 {
            // SAFETY: CPUID is available on every x86-64 CPU; leaf 4 returns zeros on
            // CPUs that do not implement it, which ends the loop.
            #[allow(unused_unsafe)]
            let r = unsafe { __cpuid_count(4, sub) };
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let parts = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
            if level >= best.1 && kind != 2 {
                best = (ways * parts * line * sets, level);
            }
        }
        if best.0 > 0 {
            return (best.0, "cpuid");
        }
    }
    (32 << 20, "assumed")
}

// ----------------------------------------------------------------------- FMA peak ----

const FMA_ITERS: u64 = 20_000_000;

#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::*;

    // Twelve independent accumulator chains cover the FMA latency on two ports.

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn f64_avx512(iters: u64) -> f64 {
        let m = _mm512_set1_pd(0.999_999_9);
        let c = _mm512_set1_pd(1e-9);
        let mut acc = [_mm512_set1_pd(1.0); 12];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm512_fmadd_pd(*a, m, c);
            }
        }
        acc.iter().map(|&a| _mm512_reduce_add_pd(a)).sum()
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn f32_avx512(iters: u64) -> f64 {
        let m = _mm512_set1_ps(0.999_9);
        let c = _mm512_set1_ps(1e-5);
        let mut acc = [_mm512_set1_ps(1.0); 12];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm512_fmadd_ps(*a, m, c);
            }
        }
        acc.iter().map(|&a| _mm512_reduce_add_ps(a) as f64).sum()
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f64_avx2(iters: u64) -> f64 {
        let m = _mm256_set1_pd(0.999_999_9);
        let c = _mm256_set1_pd(1e-9);
        let mut acc = [_mm256_set1_pd(1.0); 12];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_fmadd_pd(*a, m, c);
            }
        }
        let mut out = [0.0f64; 4];
        let mut s = 0.0;
        for a in acc {
            _mm256_storeu_pd(out.as_mut_ptr(), a);
            s += out.iter().sum::<f64>();
        }
        s
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f32_avx2(iters: u64) -> f64 {
        let m = _mm256_set1_ps(0.999_9);
        let c = _mm256_set1_ps(1e-5);
        let mut acc = [_mm256_set1_ps(1.0); 12];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_fmadd_ps(*a, m, c);
            }
        }
        let mut out = [0.0f32; 8];
        let mut s = 0.0;
        for a in acc {
            _mm256_storeu_ps(out.as_mut_ptr(), a);
            s += out.iter().map(|&v| v as f64).sum::<f64>();
        }
        s
    }
}

/// Scalar fallback: twelve multiply-add chains (2 flops each per step).
fn fma_scalar(iters: u64) -> f64 {
    let mut acc = [1.0f64; 12];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * 0.999_999_9 + 1e-9;
        }
    }
    acc.iter().sum()
}

/// One thread's FMA loop on the same ISA the packed kernels use; returns flops done.
fn fma_run(single: bool, backend: &str, iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `backend` is `bsr_linalg::elem::simd_backend()`, which names the
        // instruction set only after runtime feature detection confirmed it.
        let (sink, lanes) = unsafe {
            match (backend, single) {
                ("avx512f", false) => (fma::f64_avx512(iters), 8.0),
                ("avx512f", true) => (fma::f32_avx512(iters), 16.0),
                ("avx2+fma", false) => (fma::f64_avx2(iters), 4.0),
                ("avx2+fma", true) => (fma::f32_avx2(iters), 8.0),
                _ => (fma_scalar(iters), 1.0),
            }
        };
        black_box(sink);
        iters as f64 * 12.0 * lanes * 2.0
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (single, backend);
        black_box(fma_scalar(iters));
        iters as f64 * 12.0 * 2.0
    }
}

/// Peak FMA GFLOP/s of `threads` concurrent loops; best of three.
fn fma_peak(single: bool, backend: &'static str, threads: usize) -> f64 {
    let iters = if backend == "scalar" {
        FMA_ITERS / 4
    } else {
        FMA_ITERS / 8
    };
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let flops: f64 = std::thread::scope(|s| {
                let hs: Vec<_> = (0..threads)
                    .map(|_| s.spawn(move || fma_run(single, backend, iters)))
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("FMA probe thread panicked"))
                    .sum()
            });
            flops / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// Streaming read bandwidth (GB/s) over one array of `bytes`; best of three passes
/// of `threads` readers. The array is written first so no page is the shared zero page.
fn stream_gbps(bytes: usize, threads: usize) -> f64 {
    let n = bytes / 8;
    let mut a = vec![0.0f64; n];
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (t, part) in a.chunks_mut(chunk).enumerate() {
            s.spawn(move || part.iter_mut().for_each(|x| *x = 1.0 + t as f64));
        }
    });
    let passes = (0..3).map(|_| {
        let t = Instant::now();
        let sum: f64 = std::thread::scope(|s| {
            let hs: Vec<_> = a
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        // Eight partial sums keep the loop bandwidth-bound, not add-bound.
                        let mut acc = [0.0f64; 8];
                        for c in part.chunks_exact(8) {
                            for (x, y) in acc.iter_mut().zip(c) {
                                *x += y;
                            }
                        }
                        acc.iter().sum::<f64>()
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("stream probe thread panicked"))
                .sum()
        });
        black_box(sum);
        (n * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
    });
    passes.fold(0.0, f64::max)
}

fn gemm_gflops<E: bsr_linalg::Element>(n: usize, seed: u64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0)).convert::<E>();
    let b = Matrix::<f64>::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0)).convert::<E>();
    black_box(blas3::gemm(&a, Trans::No, &b, Trans::No));
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(blas3::gemm(&a, Trans::No, &b, Trans::No));
            2.0 * (n as f64).powi(3) / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// Median microseconds of one empty fork-join round trip on the pool.
fn pool_dispatch_us() -> f64 {
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..200 {
                rayon::scope(|s| {
                    s.spawn(|| {
                        black_box(());
                    })
                });
            }
            t.elapsed().as_secs_f64() * 1e6 / 200.0
        })
        .collect();
    median(&batches)
}

/// Time a fresh autotuner probe in a child process (the timed runs pin
/// `BSR_AUTOTUNE=0`, so the probe never runs in this process). Median of three.
fn tune_probe_s() -> f64 {
    let exe = std::env::current_exe().expect("benchmark executable path");
    let times: Vec<f64> = (0..3)
        .map(|k| {
            let dir = std::path::Path::new(crate::OUT_DIR)
                .join(format!("tune-probe-{}-{k}", std::process::id()));
            let out = std::process::Command::new(&exe)
                .arg("--probe-tune")
                .env("BSR_AUTOTUNE", "1")
                .env("BSR_AUTOTUNE_DIR", &dir)
                .output()
                .expect("spawn the autotuner probe");
            let _ = std::fs::remove_dir_all(&dir);
            assert!(out.status.success(), "autotuner probe failed: {out:?}");
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .expect("probe seconds")
        })
        .collect();
    median(&times)
}

/// The child side of [`tune_probe_s`]: resolve both element types and print seconds.
pub fn probe_tune_child() {
    let t = Instant::now();
    black_box(bsr_linalg::tune::report());
    println!("{}", t.elapsed().as_secs_f64());
}

/// Run every machine/kernel probe; returns the info fields describing the sizes.
pub fn probe(m: &mut Metrics, threads: usize, seed: u64) -> Vec<(String, Json)> {
    let backend = bsr_linalg::elem::simd_backend();
    let (llc, llc_src) = llc_bytes();
    let stream_bytes = 4 * llc;
    let peak64 = fma_peak(false, backend, threads);
    let peak32 = fma_peak(true, backend, threads);
    let gemm64 = gemm_gflops::<f64>(1024, seed);
    let gemm32 = gemm_gflops::<f32>(1024, seed ^ 1);
    m.set("blas3.gemm_f64_gflops", gemm64);
    m.set("blas3.gemm_f32_gflops", gemm32);
    m.set("blas3.gemm_f64_peak_frac", gemm64 / peak64);
    m.set("blas3.gemm_f32_peak_frac", gemm32 / peak32);
    m.set("roofline.fma_f64_gflops", peak64);
    m.set("roofline.fma_f32_gflops", peak32);
    m.set("roofline.stream_gbps", stream_gbps(stream_bytes, threads));
    m.set("pool.dispatch_us", pool_dispatch_us());
    m.set("tune.probe_s", tune_probe_s());
    vec![
        ("roofline_threads".into(), Json::Int(threads as i64)),
        ("gemm_n".into(), Json::Int(1024)),
        ("llc_bytes".into(), Json::Int(llc as i64)),
        ("llc_source".into(), Json::str(llc_src)),
        ("stream_array_bytes".into(), Json::Int(stream_bytes as i64)),
    ]
}

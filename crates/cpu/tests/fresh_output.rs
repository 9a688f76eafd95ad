//! Every fresh γ is fully written: no cell of a result is left as the
//! allocator handed it over.
//!
//! The fresh-output entries allocate γ without initializing it and let the
//! tiles write every cell. This binary's global allocator fills every
//! block it hands out through `alloc` with the byte `0xA5` (`alloc_zeroed`
//! still returns zeros), so a cell that no tile wrote reads `0xA5A5A5A5`,
//! which no count here reaches, and the comparison with the reference
//! names it. The one-thread loop nest's `gamma_blocked_into` overwrites an
//! output filled with the same pattern. It is its own test binary because
//! the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};

use snp_bitmat::{reference_gamma, BitMatrix, CompareOp, CountMatrix};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::gemm::{gamma_blocked, gamma_blocked_into};
use snp_cpu::{CpuBlocking, CpuEngine};

const POISON: u8 = 0xA5;

/// [`System`], with every block from `alloc` filled with [`POISON`].
struct Poisoning;

// SAFETY: every method hands its arguments to `System` unchanged, and
// `alloc` only writes the bytes of the block it just received.
unsafe impl GlobalAlloc for Poisoning {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() {
            // SAFETY: `block` is a fresh allocation of `layout.size()`
            // bytes.
            unsafe { block.write_bytes(POISON, layout.size()) };
        }
        block
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Poisoning = Poisoning;

/// Blocks small enough that the shapes below span several `k_c` blocks,
/// row blocks and tiles.
fn small_blocking() -> CpuBlocking {
    CpuBlocking {
        m_r: MR,
        n_r: NR,
        k_c: 2,
        m_c: 2 * MR,
        n_c: 3 * NR,
    }
}

fn matrix(rows: usize, bits: usize, salt: usize) -> BitMatrix<u64> {
    BitMatrix::from_fn(rows, bits, |r, c| {
        (r.wrapping_mul(0x9E37_79B9) ^ c.wrapping_mul(0x85EB_CA6B) ^ salt) % 5 < 2
    })
}

/// Every fresh-output entry of `engine`, and the one-thread loop nest at
/// its blocking, on `m` × `n` rows of `bits` bits, against the reference.
fn check_every_entry(engine: &CpuEngine, m: usize, n: usize, bits: usize) {
    let blocking = engine.blocking();
    let at = format!("{m} x {n} x {bits} bits, k_c {}", blocking.k_c);
    let (a, b) = (matrix(m, bits, 1), matrix(n, bits, 2));
    for op in CompareOp::ALL {
        let want = reference_gamma(&a, &b, op);
        assert_eq!(
            engine.gamma(&a, &b, op).first_mismatch(&want),
            None,
            "{at}, {op}"
        );
        let blocked = gamma_blocked(&a, &b, op, blocking);
        assert_eq!(
            blocked.first_mismatch(&want),
            None,
            "{at}, {op}, gamma_blocked"
        );
        let poisoned = vec![u32::from_ne_bytes([POISON; 4]); m * n];
        let mut c = CountMatrix::from_vec(m, n, poisoned);
        gamma_blocked_into(&a, &b, op, blocking, &mut c);
        assert_eq!(
            c.first_mismatch(&want),
            None,
            "{at}, {op}, gamma_blocked_into"
        );
    }
    let want = reference_gamma(&a, &b, CompareOp::Xor);
    let got = engine.identity_search(&a, &b);
    assert_eq!(got.first_mismatch(&want), None, "{at}, identity_search");
    let want = reference_gamma(&a, &b, CompareOp::AndNot);
    for pre_negate in [false, true] {
        let got = engine.mixture_analysis(&a, &b, pre_negate);
        let at = format!("{at}, mixture_analysis pre_negate={pre_negate}");
        assert_eq!(got.first_mismatch(&want), None, "{at}");
    }
    for panel in [&a, &b] {
        let want = reference_gamma(panel, panel, CompareOp::And);
        let got = engine.ld_self(panel);
        assert_eq!(got.first_mismatch(&want), None, "{at}, ld_self");
    }
}

#[test]
fn the_allocator_poisons_what_it_hands_out() {
    let layout = Layout::array::<u32>(64).expect("a small layout");
    // SAFETY: `layout` has a non-zero size.
    let block = unsafe { ALLOC.alloc(layout) };
    assert!(!block.is_null());
    // SAFETY: `alloc` wrote all `layout.size()` bytes of `block`.
    let bytes = unsafe { std::slice::from_raw_parts(block, layout.size()) };
    assert!(bytes.iter().all(|&byte| byte == POISON));
    // SAFETY: `block` came from `ALLOC.alloc` with this `layout`.
    unsafe { ALLOC.dealloc(block, layout) };
}

#[test]
fn fresh_outputs_are_fully_written() {
    // m and n off every multiple of MR, NR and m_c (n < NR included);
    // k within one k_c block and across several; and k = 0, where no
    // block runs and each tile writes its zeros itself.
    let shapes = [
        (1, 1, 64),
        (MR + 3, NR - 1, 200),
        (2 * MR + 5, 3 * NR + 2, 64 * 7 + 17),
        (3 * 2 * MR + 1, 9 * NR + 3, 64 * 5 + 1),
        (5, 2, 0),
        (2 * 2 * MR + 3, 7 * NR + 1, 0),
    ];
    let engine = CpuEngine::new();
    for &(m, n, bits) in &shapes {
        check_every_entry(&engine, m, n, bits);
        check_every_entry(&engine.clone().with_blocking(small_blocking()), m, n, bits);
    }
}

#[test]
fn default_blocking_spans_several_row_blocks_and_k_c_blocks() {
    // 203 rows are three row blocks of the default m_c = 96, the last one
    // ragged, and 180 words are two k_c blocks of the default 170.
    let engine = CpuEngine::new();
    assert_eq!((engine.blocking().m_c, engine.blocking().k_c), (96, 170));
    check_every_entry(&engine, 203, 131, 64 * 180 - 3);
}

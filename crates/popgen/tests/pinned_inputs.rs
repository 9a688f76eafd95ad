//! Every generator's output at the benchmark's shapes, pinned as a digest.
//!
//! The digests were written by the per-bit generators (one `random_bool`
//! and one `BitMatrix::set` per bit). Any change to how a generator draws
//! or packs its bits must leave them unchanged: the paper reproductions,
//! the golden reports and the benchmark's oracles all rest on these
//! matrices.

use snp_bitmat::BitMatrix;
use snp_popgen::forensic::{generate_database, generate_mixtures, generate_queries};
use snp_popgen::{generate_family, generate_panel, DatabaseConfig, PanelConfig};

/// FNV-1a over 64-bit words: the shape, then every stored word.
fn digest(m: &BitMatrix<u64>) -> u64 {
    [m.rows() as u64, m.cols() as u64]
        .into_iter()
        .chain(m.words().iter().copied())
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The database, its queries and its mixtures at one seed, against
/// `[database, queries, mixtures]` digests.
fn check_forensic(seed: u64, want: [u64; 3]) {
    let db = generate_database(
        &DatabaseConfig {
            profiles: 39_995,
            snps: 1024,
            ..Default::default()
        },
        seed,
    );
    let queries = generate_queries(&db, 32, 16, 0.01, seed).queries;
    let (_, mixtures) = generate_mixtures(&db, 4, 2, seed);
    let got = [digest(&db.profiles), digest(&queries), digest(&mixtures)];
    assert_eq!(
        got, want,
        "seed {seed}: [database, queries, mixtures] digests"
    );
}

#[test]
fn forensic_inputs_at_seed_1() {
    check_forensic(
        1,
        [
            0xe3cd_e0b9_a337_4e2b,
            0x5738_fa48_939b_425e,
            0x0644_b113_4bfe_6fcb,
        ],
    );
}

#[test]
fn forensic_inputs_at_seed_104729() {
    check_forensic(
        104_729,
        [
            0x14a3_62a3_b50c_8dee,
            0x46c3_2c7f_134e_4834,
            0x0879_a774_6a65_ccf6,
        ],
    );
}

#[test]
fn ld_panels_are_pinned() {
    for (seed, want) in [(1, 0xfdae_3a05_4163_0980), (104_729, 0x8a7f_48ce_4854_cac2)] {
        let panel = generate_panel(
            &PanelConfig {
                snps: 1021,
                samples: 4096,
                ..Default::default()
            },
            seed,
        );
        assert_eq!(digest(&panel.matrix), want, "seed {seed}");
    }
}

#[test]
fn family_studies_are_pinned() {
    // Seed 5 is the study `ndis_scale` builds.
    for (seed, want) in [
        (1, 0x5070_af22_7535_cc5b),
        (5, 0xad69_5c3d_ca51_4c5c),
        (104_729, 0x5079_fd99_df38_b021),
    ] {
        let fam = generate_family(12, 6, 2048, 0.3, seed);
        assert_eq!(digest(&fam.profiles), want, "seed {seed}");
    }
}

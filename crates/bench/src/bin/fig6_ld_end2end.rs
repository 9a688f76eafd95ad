fn main() {
    print!("{}", snp_bench::fig6_ld_end2end());
}

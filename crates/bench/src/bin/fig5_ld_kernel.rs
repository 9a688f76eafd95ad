fn main() {
    print!("{}", snp_bench::fig5_ld_kernel());
}

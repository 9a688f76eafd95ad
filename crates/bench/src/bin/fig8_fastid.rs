fn main() {
    print!("{}", snp_bench::fig8_fastid());
}

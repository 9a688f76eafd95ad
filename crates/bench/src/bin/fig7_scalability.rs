fn main() {
    print!("{}", snp_bench::fig7_scalability());
}

fn main() {
    print!("{}", snp_bench::fig9_andnot());
}

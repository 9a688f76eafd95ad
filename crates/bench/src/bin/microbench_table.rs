fn main() {
    print!("{}", snp_bench::microbench_table());
}

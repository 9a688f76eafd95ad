fn main() {
    print!("{}", snp_bench::ablation_report());
}

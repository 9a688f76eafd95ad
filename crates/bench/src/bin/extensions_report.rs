fn main() {
    print!("{}", snp_bench::extensions_report());
}

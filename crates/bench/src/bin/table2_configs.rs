fn main() {
    print!("{}", snp_bench::table2_configs());
}

fn main() {
    print!("{}", snp_bench::table1_devices());
}

fn main() {
    std::process::exit(binsym_enginebench::cli::main(std::env::args().skip(1)));
}

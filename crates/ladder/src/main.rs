fn main() -> std::process::ExitCode {
    cip_ladder::cli::main(std::env::args().skip(1).collect())
}

//! The timed binary: system allocator untouched.

fn main() -> std::process::ExitCode {
    aqf_benchmark::main()
}

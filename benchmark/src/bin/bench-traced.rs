//! The traced binary: the same entry point under a counting allocator.

#[global_allocator]
static ALLOC: aqf_benchmark::alloc::CountingAlloc = aqf_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    aqf_benchmark::main()
}

//! Writes the native marshal stubs of the seed-pinned fixture corpus to
//! `OUT_DIR/generated_stubs.rs`, which `src/lib.rs` includes as the
//! `generated_stubs` module.

fn main() {
    // Cargo reruns this script when it, or the emitter it links
    // against, changes; the crate's own sources do not affect the output.
    println!("cargo:rerun-if-changed=build.rs");
    let stubs = mockingbird::emit_fixture_stubs().expect("the fixture corpus emits");
    let out = std::env::var_os("OUT_DIR").expect("Cargo sets OUT_DIR for build scripts");
    let path = std::path::Path::new(&out).join("generated_stubs.rs");
    std::fs::write(&path, stubs.source).expect("write generated_stubs.rs to OUT_DIR");
}

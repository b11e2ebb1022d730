//! Microbenchmarks of the cryptographic substrate: AES block speed,
//! OTP generation, full-line counter-mode encryption, and split-counter
//! codec throughput. These bound how fast the whole-system simulation
//! can run (every simulated flush performs four real AES blocks).

use std::hint::black_box;
use supermem::crypto::aes::Aes128;
use supermem::crypto::{CounterLine, EncryptionEngine};
use supermem_bench::micro::Harness;

fn main() {
    let mut h = Harness::new("crypto");

    let aes = Aes128::new([7u8; 16]);
    let block = [0x5Au8; 16];
    h.bench("aes128_encrypt_block", || {
        aes.encrypt_block(black_box(block))
    });
    let ct = aes.encrypt_block(block);
    h.bench("aes128_decrypt_block", || aes.decrypt_block(black_box(ct)));

    let engine = EncryptionEngine::new([9u8; 16]);
    let line = [0xC3u8; 64];
    h.bench("otp_64B", || engine.otp(black_box(0x4000), 5, 17));
    h.bench("encrypt_line_64B", || {
        engine.encrypt_line(black_box(&line), 0x4000, 5, 17)
    });

    let mut ctr = CounterLine::new();
    for i in 0..64 {
        for _ in 0..(i % 50) {
            ctr.increment(i);
        }
    }
    h.bench("counterline_encode", || black_box(&ctr).encode());
    let bytes = ctr.encode();
    h.bench("counterline_decode", || {
        CounterLine::decode(black_box(&bytes))
    });

    h.finish();
}

//! CRC-32 (IEEE 802.3) checksum.
//!
//! Every artifact [`frame`](crate::codec::frame) carries a CRC over its
//! payload, so a truncated or corrupted statistics database, model or
//! journal file is detected at load time instead of silently skewing every
//! downstream model. Implemented in-tree (the reflected algorithm,
//! polynomial `0xEDB88320`) to stay inside the workspace's approved
//! dependency set, and sliced by 8: eight 256-entry tables fold eight
//! input bytes per step instead of one. Table `k` maps a byte to its CRC
//! contribution after `k` further zero bytes, so the eight lookups of a
//! step are independent and sum (XOR) to eight bytewise steps.

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][chunk[4] as usize]
                ^ t[2][chunk[5] as usize]
                ^ t[1][chunk[6] as usize]
                ^ t[0][chunk[7] as usize];
        }
        for &b in chunks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Finish and return the checksum.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot convenience.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"feature statistics database";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finalize(), crc32(data));
    }

    /// The bytewise reference: one table lookup per byte.
    fn oracle(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// Random bytes fed through `update` in pieces cut at random split
        /// points checksum exactly as the bytewise reference does.
        #[test]
        fn sliced_streaming_equals_bytewise(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.push(0);
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut c = Crc32::new();
            for w in cuts.windows(2) {
                c.update(&data[w[0]..w[1]]);
            }
            proptest::prop_assert_eq!(c.finalize(), oracle(&data));
        }
    }

    #[test]
    fn detects_bit_flips() {
        let a = crc32(b"up=3 down=1");
        let b = crc32(b"up=3 down=2");
        assert_ne!(a, b);
    }
}

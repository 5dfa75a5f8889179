//! A checkpoint block as the pages it is held and shipped in.
//!
//! Every block a [`NodeCore`](super::NodeCore) holds — its live image, its
//! committed block, a holder's staged shard, a custody block, a rebuild's
//! accumulator — is a [`Block`]: a vector of reference-counted pages of
//! [`PART_LEN`] bytes, the last one shorter. A page is the part a block
//! travels in, so a capture hands a holder the live block's own pages, or
//! its term's, and copies none. What shares a page never sees it change: a write goes
//! through [`Arc::make_mut`], which copies a page somebody else still holds
//! before it writes, and a recycled page is reused only when
//! [`Arc::get_mut`] shows nobody else holds it.

use std::sync::Arc;

use dvdc_simcore::rng::Xxh64;

use super::node_core::PART_LEN;

/// [`PART_LEN`] bytes of a block (the last page of a block may be
/// shorter), shared by reference between the block and the messages that
/// carry it.
pub type Page = Arc<Vec<u8>>;

/// A block of bytes as its pages: page *i* holds bytes `[i·PART_LEN,
/// min((i+1)·PART_LEN, len))`. Cloning one copies pointers, not bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Block {
    pages: Vec<Page>,
}

impl Block {
    /// The block's length in bytes.
    pub fn len(&self) -> usize {
        self.pages.iter().map(|p| p.len()).sum()
    }

    /// True for a block of no bytes.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The pages, in order.
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// The block of `len` bytes whose pages `next(n)` hands over, one call
    /// per page of `n` bytes, in order — or none, if a call hands over
    /// none or not `n` bytes.
    pub fn read_pages(len: usize, mut next: impl FnMut(usize) -> Option<Vec<u8>>) -> Option<Block> {
        let n = |i: usize| PART_LEN.min(len - i * PART_LEN);
        let page = |i| next(n(i)).filter(|p| p.len() == n(i)).map(Arc::new);
        let pages = (0..len.div_ceil(PART_LEN))
            .map(page)
            .collect::<Option<_>>()?;
        Some(Block { pages })
    }

    /// The bytes, copied into one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.len());
        for page in &self.pages {
            bytes.extend_from_slice(page);
        }
        bytes
    }

    /// XXH64 of the bytes: [`block_digest`](super::node_core::block_digest)
    /// of [`Block::to_vec`], without the copy.
    pub fn digest(&self) -> u64 {
        let mut h = Xxh64::default();
        for page in &self.pages {
            h.update(page);
        }
        h.finish()
    }

    /// The pages, given up.
    pub(crate) fn into_pages(self) -> Vec<Page> {
        self.pages
    }

    /// Page `i`, to write: copied first if anything else still holds it.
    pub(crate) fn page_mut(&mut self, i: usize) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.pages[i])
    }

    /// A block of `len` bytes whose page `i` is written by `write(i, page)`
    /// (which must write every byte): into page `i` of `spare` where
    /// nothing else holds it, else into a new page.
    pub(crate) fn recycle(
        spare: Option<Block>,
        len: usize,
        mut write: impl FnMut(usize, &mut [u8]),
    ) -> Block {
        let mut spare = spare.map(Block::into_pages).unwrap_or_default().into_iter();
        let pages = (0..len.div_ceil(PART_LEN)).map(|i| {
            let n = PART_LEN.min(len - i * PART_LEN);
            let unshared = |mut page: Page| Arc::get_mut(&mut page).is_some().then_some(page);
            let mut page =
                (spare.next().and_then(unshared)).unwrap_or_else(|| Arc::new(vec![0; n]));
            let buf = Arc::get_mut(&mut page).expect("a page nothing else holds");
            buf.resize(n, 0);
            write(i, buf);
            page
        });
        Block {
            pages: pages.collect(),
        }
    }
}

impl From<Vec<u8>> for Block {
    /// The bytes as pages, copied.
    fn from(bytes: Vec<u8>) -> Block {
        let mut pages = bytes.chunks(PART_LEN).map(<[u8]>::to_vec);
        Block::read_pages(bytes.len(), |_| pages.next()).expect("its chunks are its pages")
    }
}

impl PartialEq<[u8]> for Block {
    fn eq(&self, bytes: &[u8]) -> bool {
        self.len() == bytes.len() && self.pages.iter().map(|p| &p[..]).eq(bytes.chunks(PART_LEN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::node_core::block_digest;

    fn bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    #[test]
    fn a_block_is_its_bytes_in_pages_of_part_len() {
        for len in [
            1,
            PART_LEN - 1,
            PART_LEN,
            PART_LEN + 1,
            3 * PART_LEN + 4_099,
        ] {
            let want = bytes(len);
            let block = Block::from(want.clone());
            let lens: Vec<usize> = block.pages().iter().map(|p| p.len()).collect();
            let whole = (0..len.div_ceil(PART_LEN)).map(|i| PART_LEN.min(len - i * PART_LEN));
            assert_eq!(lens, whole.collect::<Vec<_>>(), "{len}");
            assert_eq!((block.len(), block.to_vec()), (len, want.clone()), "{len}");
            assert!(block == want[..], "{len}");
            assert!(
                block != want[1..] && block != [&want[..], &[0]].concat()[..],
                "{len}"
            );
            assert_eq!(block.digest(), block_digest(&want), "{len}");
            // A page handed over short, or not at all, is no block.
            assert_eq!(Block::read_pages(len, |n| Some(vec![0; n - 1])), None);
            assert_eq!(Block::read_pages(len, |_| None), None);
        }
        assert_eq!(Block::from(Vec::new()), Block::default());
        assert!(Block::default().is_empty() && Block::default() == [][..]);
    }

    #[test]
    fn a_write_copies_a_shared_page_and_a_recycle_reuses_only_unshared_ones() {
        let len = 2 * PART_LEN + 5;
        let mut block = Block::from(bytes(len));
        let shipped = block.pages()[0].clone();
        block.page_mut(0)[0] ^= 0xFF;
        block.page_mut(1)[0] ^= 0xFF;
        // The held page was copied, the other written where it lies.
        assert_eq!(&shipped[..], &bytes(len)[..PART_LEN]);
        assert!(!Arc::ptr_eq(&shipped, &block.pages()[0]));
        let (was, held) = (Arc::as_ptr(&block.pages()[1]), block.pages()[2].clone());
        let next = Block::recycle(Some(block), len, |i, page| page.fill(i as u8));
        assert!(!Arc::ptr_eq(&next.pages()[2], &held));
        assert_eq!(Arc::as_ptr(&next.pages()[1]), was);
        let want = [vec![0; PART_LEN], vec![1; PART_LEN], vec![2; 5]].concat();
        assert!(next == want[..]);
        // Shorter than the spare: the pages past the end are dropped.
        assert!(Block::recycle(Some(next), 3, |_, page| page.fill(9)) == [9; 3][..]);
    }
}

//! `dvdc-checkpoint`: what the sim's rounds spend their time in.

use bytes::Bytes;
use dvdc_checkpoint::delta::xor_runs;
use dvdc_checkpoint::integrity::checksum;
use dvdc_checkpoint::payload::{Checkpoint, CheckpointPayload, PageDelta};
use dvdc_checkpoint::store::MaterializedStore;
use dvdc_vcluster::ids::VmId;

use super::{filler, gb_per_s};

/// An increment that dirties every page: the most a round can ask of the
/// delta and store code for one image.
fn all_pages_dirty(base_epoch: u64, image: &[u8], page_size: usize) -> CheckpointPayload {
    CheckpointPayload::Incremental {
        base_epoch,
        page_size,
        image_len: image.len(),
        pages: image
            .chunks(page_size)
            .enumerate()
            .map(|(index, page)| PageDelta {
                index,
                bytes: Bytes::copy_from_slice(page),
            })
            .collect(),
    }
}

pub fn pass(image_len: usize, page_size: usize, seed: u64) -> Vec<(&'static str, f64)> {
    assert_eq!(image_len % page_size, 0, "image is a whole number of pages");
    let base = filler(image_len, seed);
    let next = filler(image_len, seed + 1);
    let increment = all_pages_dirty(1, &next, page_size);
    let vm = VmId(0);
    vec![
        (
            "checkpoint.integrity.checksum_gb_s",
            gb_per_s(image_len, || (), |()| checksum(&base)),
        ),
        (
            "checkpoint.delta.xor_runs_gb_s",
            gb_per_s(
                image_len,
                || (),
                |()| xor_runs(&increment, &base).expect("an increment"),
            ),
        ),
        (
            "checkpoint.store.apply_gb_s",
            gb_per_s(
                image_len,
                || {
                    let mut store = MaterializedStore::new();
                    store.insert_image(vm, 1, base.clone());
                    let ckpt = Checkpoint {
                        vm,
                        epoch: 2,
                        payload: increment.clone(),
                    };
                    (store, ckpt)
                },
                |(mut store, ckpt)| {
                    store.apply(&ckpt).expect("increment applies to its base");
                    store
                },
            ),
        ),
    ]
}

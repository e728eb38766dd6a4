//! A timing [`ArtifactStore`] wrapper: every load and store the session
//! makes into the persistent backend runs inside a `store.load` or
//! `store.store` span, so the store layer is measured without touching
//! the store or the session. Byte, eviction and corruption counts come
//! from the backend's own [`StoreStats`].

use dmc_core::{Artifact, ArtifactStore, StageId, StoreStats};
use dmc_ir::fp::Fingerprint;

use crate::spans;

#[derive(Debug)]
pub struct Timed<S>(pub S);

impl<S: ArtifactStore> ArtifactStore for Timed<S> {
    fn load(&mut self, stage: StageId, key: Fingerprint) -> Option<Artifact> {
        let _s = spans::enter("store.load");
        self.0.load(stage, key)
    }

    fn contains(&mut self, stage: StageId, key: Fingerprint) -> bool {
        let _s = spans::enter("store.contains");
        self.0.contains(stage, key)
    }

    fn store(&mut self, stage: StageId, key: Fingerprint, artifact: &Artifact) {
        let _s = spans::enter("store.store");
        self.0.store(stage, key, artifact);
    }

    fn stats(&self) -> StoreStats {
        self.0.stats()
    }
}

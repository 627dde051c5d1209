//! Named checkpoint registry with lazy loading and caching.
//!
//! A [`ModelRegistry`] maps model names to a *builder* (how to construct a
//! fresh, randomly-initialized instance of the right architecture) plus a
//! checkpoint path (which weights to load into it). Nothing is built or
//! read from disk at registration; the first [`ModelRegistry::get`] pays
//! the build + load cost, and every later `get` returns the cached
//! `Arc<dyn ImageModel>`.
//!
//! A failed load is not cached: the error is returned and the next `get`
//! retries, so a checkpoint written after registration (or a transient
//! filesystem failure) heals without a restart.

use crate::checkpoint::load_from_path;
use crate::{Result, ServeError};
use ibrar_nn::ImageModel;
use ibrar_telemetry as tel;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Constructs a fresh instance of a registered architecture.
pub type ModelBuilder = dyn Fn() -> ibrar_nn::Result<Box<dyn ImageModel>> + Send + Sync;

/// Turns a checkpoint path into a ready-to-serve model. The general form of
/// registration: [`ModelRegistry::register`] is the common build-then-load
/// case, while [`ModelRegistry::register_loader`] accepts any loader — e.g.
/// the int8 path, which loads an f32 `VggMini` and then quantizes it into an
/// [`crate::Int8Vgg`] before serving.
pub type ModelLoader = dyn Fn(&std::path::Path) -> crate::Result<Arc<dyn ImageModel>> + Send + Sync;

struct Entry {
    path: PathBuf,
    load: Arc<ModelLoader>,
    cached: Option<Arc<dyn ImageModel>>,
}

/// Thread-safe map from model name to lazily-loaded checkpointed model.
#[derive(Default)]
pub struct ModelRegistry {
    entries: Mutex<HashMap<String, Entry>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Registers `name` as `builder`'s architecture with weights at `path`.
    ///
    /// Re-registering a name replaces the entry and drops any cached model.
    pub fn register<F>(&self, name: &str, path: impl Into<PathBuf>, builder: F)
    where
        F: Fn() -> ibrar_nn::Result<Box<dyn ImageModel>> + Send + Sync + 'static,
    {
        self.register_loader(name, path, move |path| {
            let model: Box<dyn ImageModel> = builder()?;
            load_from_path(model.as_ref(), path)?;
            Ok(Arc::from(model))
        });
    }

    /// Registers `name` with an arbitrary checkpoint loader — the hook for
    /// serving paths that post-process a loaded model, like int8
    /// quantization ([`crate::Int8Vgg`]). Same laziness and caching as
    /// [`ModelRegistry::register`].
    pub fn register_loader<F>(&self, name: &str, path: impl Into<PathBuf>, loader: F)
    where
        F: Fn(&std::path::Path) -> crate::Result<Arc<dyn ImageModel>> + Send + Sync + 'static,
    {
        self.entries.lock().insert(
            name.to_string(),
            Entry {
                path: path.into(),
                load: Arc::new(loader),
                cached: None,
            },
        );
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Whether `name`'s model is currently built and cached.
    pub fn is_loaded(&self, name: &str) -> bool {
        self.entries
            .lock()
            .get(name)
            .is_some_and(|e| e.cached.is_some())
    }

    /// Returns the model for `name`, loading its checkpoint on first use.
    ///
    /// The registry lock is *not* held during the build + load (which can
    /// take long for big checkpoints); two concurrent first requests may
    /// both load, and the first to finish wins the cache slot — both get a
    /// fully-loaded model either way.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for unregistered names and
    /// propagates build ([`ServeError::Nn`]) and checkpoint errors. Errors
    /// are not cached; the next call retries.
    pub fn get(&self, name: &str) -> Result<Arc<dyn ImageModel>> {
        let (path, load) = {
            let entries = self.entries.lock();
            let entry = entries
                .get(name)
                .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
            if let Some(cached) = &entry.cached {
                tel::counter("serve.registry.hit", 1);
                return Ok(Arc::clone(cached));
            }
            (entry.path.clone(), Arc::clone(&entry.load))
        };

        let _s = tel::span!("serve.registry.load");
        tel::counter("serve.registry.load", 1);
        let model: Arc<dyn ImageModel> = load(&path)?;

        let mut entries = self.entries.lock();
        match entries.get_mut(name) {
            // Keep an existing winner so every caller shares one instance.
            Some(e) => match &e.cached {
                Some(winner) => Ok(Arc::clone(winner)),
                None => {
                    e.cached = Some(Arc::clone(&model));
                    Ok(model)
                }
            },
            // Entry was replaced/removed mid-load; hand back what we built.
            None => Ok(model),
        }
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("names", &self.names())
            .finish()
    }
}

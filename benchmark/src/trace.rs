//! Spans recorded from the benchmark's own files: a timing decorator around
//! any registered [`Compressor`], and the in-memory log it writes to.
//!
//! The decorator forwards `fork`, `codec_id`, `embedded_model` and both
//! directions to the codec it wraps, so the program cannot tell it apart;
//! registered in a `Registry` or a daemon's `ServerState::registry`, it
//! measures codec busy time inside archive windows and daemon requests from
//! outside the program. Only the traced run registers it.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use aesz_repro::metrics::{CompressError, DecompressError, EmbeddedModel, ModelId};
use aesz_repro::{CodecId, Compressor, ErrorBound, Field};

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Compress,
    Decompress,
    Fork,
}

/// One timed call into a codec.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub codec: CodecId,
    pub op: Op,
    pub thread: ThreadId,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Spans kept in memory until the run ends; clones share one log.
#[derive(Clone, Default)]
pub struct SpanLog(Arc<Mutex<Vec<Span>>>);

impl SpanLog {
    fn push(&self, codec: CodecId, op: Op, start: Instant) {
        let span = Span {
            codec,
            op,
            thread: std::thread::current().id(),
            start,
            end: Instant::now(),
        };
        self.0.lock().expect("span log poisoned").push(span);
    }

    /// Take every span recorded so far, leaving the log empty.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.lock().expect("span log poisoned"))
    }
}

/// Timing decorator: forwards every call to `inner` and logs a span for
/// each fork, compress and decompress.
pub struct Timed {
    inner: Box<dyn Compressor>,
    log: SpanLog,
}

impl Timed {
    pub fn new(inner: Box<dyn Compressor>, log: SpanLog) -> Self {
        Timed { inner, log }
    }
}

impl Compressor for Timed {
    fn codec_id(&self) -> CodecId {
        self.inner.codec_id()
    }

    fn fork(&self) -> Box<dyn Compressor> {
        let start = Instant::now();
        let inner = self.inner.fork();
        self.log.push(self.codec_id(), Op::Fork, start);
        Box::new(Timed {
            inner,
            log: self.log.clone(),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_error_bounded(&self) -> bool {
        self.inner.is_error_bounded()
    }

    fn embedded_model(&self) -> Option<EmbeddedModel> {
        self.inner.embedded_model()
    }

    fn embedded_model_id(&self) -> Option<ModelId> {
        self.inner.embedded_model_id()
    }

    fn compress_payload(
        &mut self,
        field: &Field,
        bound: ErrorBound,
    ) -> Result<Vec<u8>, CompressError> {
        self.inner.compress_payload(field, bound)
    }

    fn decompress_payload(&mut self, payload: &[u8]) -> Result<Field, DecompressError> {
        self.inner.decompress_payload(payload)
    }

    fn compress(&mut self, field: &Field, bound: ErrorBound) -> Result<Vec<u8>, CompressError> {
        let start = Instant::now();
        let out = self.inner.compress(field, bound);
        self.log.push(self.codec_id(), Op::Compress, start);
        out
    }

    fn decompress(&mut self, bytes: &[u8]) -> Result<Field, DecompressError> {
        let start = Instant::now();
        let out = self.inner.decompress(bytes);
        self.log.push(self.codec_id(), Op::Decompress, start);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_repro::datagen::Application;
    use aesz_repro::{Dims, Registry};

    #[test]
    fn timed_codec_is_transparent_and_logs_each_call() {
        let registry = Registry::with_defaults();
        let log = SpanLog::default();
        let mut timed = Timed::new(registry.fork(CodecId::Sz2).unwrap(), log.clone());
        let mut bare = registry.fork(CodecId::Sz2).unwrap();
        let field = Application::CesmFreqsh.generate(Dims::d2(40, 24), 3);
        let bound = ErrorBound::rel(1e-3);
        let stream = timed.compress(&field, bound).unwrap();
        assert_eq!(stream, bare.compress(&field, bound).unwrap());
        let recon = timed.fork().decompress(&stream).unwrap();
        assert_eq!(
            recon.as_slice(),
            bare.decompress(&stream).unwrap().as_slice()
        );
        assert_eq!(timed.codec_id(), CodecId::Sz2);
        let ops: Vec<Op> = log.drain().iter().map(|s| s.op).collect();
        assert_eq!(ops, [Op::Compress, Op::Fork, Op::Decompress]);
        assert!(log.drain().is_empty());
    }
}

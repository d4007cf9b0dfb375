//! Shared, dtype-aware pool-sizing arithmetic for the serving experiments.
//!
//! Every serving-side experiment serves from the same byte pool
//! (`serving::serving_fixture` calls [`steady_pool_bytes`] once for all five),
//! so the "same memory envelope" claim in their docs cannot drift.
//! The helpers take a [`KvDtype`] so the quantization sweep can hold the byte
//! pool fixed while the per-token footprint shrinks — the entire mechanism
//! behind its sessions-per-pool headline.

use keyformer_core::cache::KvDtype;
use keyformer_model::model::TransformerModel;

/// Bytes one cached token occupies across all of `model`'s layers when sealed
/// blocks are stored at `dtype` ([`KvDtype::F32`] reproduces the pre-dtype
/// `model.empty_cache().bytes_per_token()` exactly).
pub fn bytes_per_token(model: &TransformerModel, dtype: KvDtype) -> usize {
    model.empty_cache_dtype(dtype).bytes_per_token()
}

/// The serving experiments' standard *tight* pool: two full-attention
/// steady-state requests (`prompt + generation` slots each) plus one token of
/// slack, so 50%-budget policies fit roughly twice the concurrency of full
/// attention. Used by the serving-throughput, paging, prefix-sharing,
/// streaming-latency and quantization experiments — all at the same byte
/// count for f32, so their artefacts describe the same memory envelope.
pub fn steady_pool_bytes(
    model: &TransformerModel,
    prompt_len: usize,
    gen_tokens: usize,
    dtype: KvDtype,
) -> usize {
    let bpt = bytes_per_token(model, dtype);
    (prompt_len + gen_tokens) * 2 * bpt + bpt
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyformer_model::families::ModelFamily;

    #[test]
    fn f32_sizing_reproduces_the_inline_formulas() {
        let model = ModelFamily::Tiny.build(11);
        let bpt = model.empty_cache().bytes_per_token();
        assert_eq!(bytes_per_token(&model, KvDtype::F32), bpt);
        assert_eq!(
            steady_pool_bytes(&model, 48, 8, KvDtype::F32),
            (48 + 8) * 2 * bpt + bpt
        );
    }

    #[test]
    fn u8_tokens_cost_a_quarter_of_f32() {
        let model = ModelFamily::Tiny.build(11);
        assert_eq!(
            bytes_per_token(&model, KvDtype::U8) * 4,
            bytes_per_token(&model, KvDtype::F32)
        );
    }
}

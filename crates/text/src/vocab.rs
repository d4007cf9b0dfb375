//! The synthetic vocabulary shared by every task generator.
//!
//! Token ids are partitioned into fixed ranges so that generators and tests can
//! reason about token roles without string lookups:
//!
//! | range | role |
//! |---|---|
//! | `0..16` | special tokens (PAD, BOS, EOS, SEP, TLDR, speakers, …) |
//! | `16..16+N_FILLER` | filler words (the bulk of every document) |
//! | cue range | topic-marker words that key retrieval chains |
//! | fact range | content words that answer the chains |
//!
//! The whole vocabulary fits inside the substrate models' 1024-entry embedding table.

/// Padding token.
pub const PAD: u32 = 0;
/// Beginning-of-sequence token.
pub const BOS: u32 = 1;
/// End-of-sequence token.
pub const EOS: u32 = 2;
/// Section separator.
pub const SEP: u32 = 3;
/// Summarization cue ("TL;DR").
pub const TLDR: u32 = 4;
/// Dialogue speaker A marker.
pub const SPEAKER_A: u32 = 5;
/// Dialogue speaker B marker.
pub const SPEAKER_B: u32 = 6;
/// Question marker for few-shot tasks.
pub const QUESTION: u32 = 7;
/// Answer marker for few-shot tasks.
pub const ANSWER: u32 = 8;
/// Separator between aspects in a summarization instruction's topic list.
pub const ASPECT_SEP: u32 = 9;
/// First non-special (content) token id. The substrate models' copy head only votes
/// for content tokens.
pub const FIRST_CONTENT_TOKEN: u32 = 16;

/// Number of filler words.
pub const NUM_FILLER: u32 = 284;
/// Number of cue (topic-marker) words.
pub const NUM_CUES: u32 = 300;
/// Number of fact words.
pub const NUM_FACTS: u32 = 424;

/// First filler id.
pub const FILLER_START: u32 = 16;
/// First cue id.
pub const CUE_START: u32 = FILLER_START + NUM_FILLER;
/// First fact id.
pub const FACT_START: u32 = CUE_START + NUM_CUES;
/// Total vocabulary size (must stay within the model embedding table).
pub const VOCAB_SIZE: u32 = FACT_START + NUM_FACTS;

/// The role a token id plays in the synthetic language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenRole {
    /// One of the reserved special tokens.
    Special,
    /// Filler word.
    Filler,
    /// Cue / topic-marker word.
    Cue,
    /// Fact word.
    Fact,
    /// Outside the vocabulary.
    Unknown,
}

/// The synthetic vocabulary: id ↔ word-string mapping plus role helpers.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary;

impl Vocabulary {
    /// Creates the vocabulary (stateless; all mappings are rule-based).
    pub fn new() -> Self {
        Vocabulary
    }

    /// Total number of token ids.
    pub fn size(&self) -> usize {
        VOCAB_SIZE as usize
    }

    /// The `i`-th filler token id.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_FILLER`.
    pub fn filler(&self, i: u32) -> u32 {
        assert!(i < NUM_FILLER, "filler index {i} out of range");
        FILLER_START + i
    }

    /// The `i`-th cue token id.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_CUES`.
    pub fn cue(&self, i: u32) -> u32 {
        assert!(i < NUM_CUES, "cue index {i} out of range");
        CUE_START + i
    }

    /// The `i`-th fact token id.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_FACTS`.
    pub fn fact(&self, i: u32) -> u32 {
        assert!(i < NUM_FACTS, "fact index {i} out of range");
        FACT_START + i
    }

    /// The role of a token id.
    pub fn role(&self, id: u32) -> TokenRole {
        match id {
            0..=15 => TokenRole::Special,
            _ if id < CUE_START => TokenRole::Filler,
            _ if id < FACT_START => TokenRole::Cue,
            _ if id < VOCAB_SIZE => TokenRole::Fact,
            _ => TokenRole::Unknown,
        }
    }

    /// Human-readable surface form of a token id.
    pub fn word(&self, id: u32) -> String {
        match id {
            PAD => "<pad>".to_string(),
            BOS => "<bos>".to_string(),
            EOS => "<eos>".to_string(),
            SEP => "<sep>".to_string(),
            TLDR => "<tldr>".to_string(),
            SPEAKER_A => "<speaker-a>".to_string(),
            SPEAKER_B => "<speaker-b>".to_string(),
            QUESTION => "<question>".to_string(),
            ANSWER => "<answer>".to_string(),
            ASPECT_SEP => "<aspect>".to_string(),
            10..=15 => format!("<reserved{id}>"),
            _ => match self.role(id) {
                TokenRole::Filler => format!("the{}", id - FILLER_START),
                TokenRole::Cue => format!("topic{}", id - CUE_START),
                TokenRole::Fact => format!("fact{}", id - FACT_START),
                _ => "<unk>".to_string(),
            },
        }
    }

    /// Parses a surface form back to a token id, returning `None` for unknown words.
    pub fn id(&self, word: &str) -> Option<u32> {
        match word {
            "<pad>" => Some(PAD),
            "<bos>" => Some(BOS),
            "<eos>" => Some(EOS),
            "<sep>" => Some(SEP),
            "<tldr>" => Some(TLDR),
            "<speaker-a>" => Some(SPEAKER_A),
            "<speaker-b>" => Some(SPEAKER_B),
            "<question>" => Some(QUESTION),
            "<answer>" => Some(ANSWER),
            "<aspect>" => Some(ASPECT_SEP),
            _ => {
                let parse = |prefix: &str, start: u32, count: u32| -> Option<u32> {
                    word.strip_prefix(prefix)
                        .and_then(|s| s.parse::<u32>().ok())
                        .filter(|&i| i < count)
                        .map(|i| start + i)
                };
                parse("the", FILLER_START, NUM_FILLER)
                    .or_else(|| parse("topic", CUE_START, NUM_CUES))
                    .or_else(|| parse("fact", FACT_START, NUM_FACTS))
                    .or_else(|| {
                        word.strip_prefix("<reserved")
                            .and_then(|s| s.strip_suffix('>'))
                            .and_then(|s| s.parse::<u32>().ok())
                            .filter(|&i| (10..=15).contains(&i))
                    })
            }
        }
    }

    /// Renders a token sequence as a space-separated string.
    pub fn render(&self, tokens: &[u32]) -> String {
        tokens
            .iter()
            .map(|&t| self.word(t))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Token-range layout invariants, checked at compile time.
    const _: () = {
        assert!(FILLER_START >= 16);
        assert!(CUE_START > FILLER_START);
        assert!(FACT_START > CUE_START);
        assert!(VOCAB_SIZE <= 1024);
    };

    #[test]
    fn ranges_do_not_overlap_and_fit_model_vocab() {
        assert_eq!(
            VOCAB_SIZE, 1024,
            "vocabulary should use the full embedding table"
        );
    }

    #[test]
    fn roles_partition_the_id_space() {
        let v = Vocabulary::new();
        assert_eq!(v.role(EOS), TokenRole::Special);
        assert_eq!(v.role(FILLER_START), TokenRole::Filler);
        assert_eq!(v.role(CUE_START), TokenRole::Cue);
        assert_eq!(v.role(FACT_START), TokenRole::Fact);
        assert_eq!(v.role(VOCAB_SIZE), TokenRole::Unknown);
    }

    #[test]
    fn word_and_id_round_trip() {
        let v = Vocabulary::new();
        for id in [
            PAD, BOS, EOS, SEP, TLDR, SPEAKER_A, QUESTION, ANSWER, ASPECT_SEP,
        ] {
            assert_eq!(v.id(&v.word(id)), Some(id));
        }
        for id in [
            v.filler(0),
            v.filler(NUM_FILLER - 1),
            v.cue(0),
            v.cue(NUM_CUES - 1),
            v.fact(0),
            v.fact(NUM_FACTS - 1),
        ] {
            assert_eq!(v.id(&v.word(id)), Some(id), "round trip for {id}");
        }
        assert_eq!(v.id("nonsense"), None);
        assert_eq!(v.id("fact99999"), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cue_panics() {
        Vocabulary::new().cue(NUM_CUES);
    }

    #[test]
    fn render_joins_words() {
        let v = Vocabulary::new();
        let text = v.render(&[BOS, v.filler(1), v.cue(2), v.fact(3), EOS]);
        assert_eq!(text, "<bos> the1 topic2 fact3 <eos>");
    }

    #[test]
    fn size_matches_constant() {
        assert_eq!(Vocabulary::new().size(), VOCAB_SIZE as usize);
    }
}

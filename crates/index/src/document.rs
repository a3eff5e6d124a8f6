//! Documents and the document store.
//!
//! A [`Document`] models one web page of the collection: a URL, a title and
//! a body. The [`DocumentStore`] owns all documents of a collection and is
//! shared by the index (for statistics), the snippet generator (for raw
//! text) and the evaluation harness (for qrels lookups by URL).

/// Dense identifier of a document within a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocId(pub u32);

impl DocId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One document of the collection.
#[derive(Debug, Clone)]
pub struct Document {
    /// Dense document id; must equal the document's position in the store.
    pub id: DocId,
    /// URL of the document (the query-log click sets `Cᵢ` reference URLs).
    pub url: String,
    /// Title text, indexed together with the body.
    pub title: String,
    /// Body text.
    pub body: String,
}

impl Document {
    /// Convenience constructor.
    pub fn new(
        id: u32,
        url: impl Into<String>,
        title: impl Into<String>,
        body: impl Into<String>,
    ) -> Self {
        Document {
            id: DocId(id),
            url: url.into(),
            title: title.into(),
            body: body.into(),
        }
    }

    /// Title and body joined — the text that gets indexed.
    pub fn full_text(&self) -> String {
        if self.title.is_empty() {
            self.body.clone()
        } else {
            format!("{} {}", self.title, self.body)
        }
    }
}

/// Owning container of a collection's documents, addressable by [`DocId`].
#[derive(Debug, Default, Clone)]
pub struct DocumentStore {
    docs: Vec<Document>,
}

impl DocumentStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a document; its `id` must equal the current length.
    ///
    /// # Panics
    /// Panics when the id is out of sequence — ids are dense by contract.
    pub fn push(&mut self, doc: Document) {
        assert_eq!(
            doc.id.index(),
            self.docs.len(),
            "document ids must be dense and in insertion order"
        );
        self.docs.push(doc);
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Get a document by id.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.index())
    }

    /// Iterate over all documents in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Document> {
        self.docs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut store = DocumentStore::new();
        store.push(Document::new(0, "http://x", "t", "b"));
        store.push(Document::new(1, "http://y", "t2", "b2"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(DocId(1)).unwrap().url, "http://y");
        assert!(store.get(DocId(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn out_of_order_id_panics() {
        let mut store = DocumentStore::new();
        store.push(Document::new(5, "http://x", "t", "b"));
    }

    #[test]
    fn full_text_joins_title_and_body() {
        let d = Document::new(0, "u", "apple pie", "recipe");
        assert_eq!(d.full_text(), "apple pie recipe");
        let no_title = Document::new(0, "u", "", "recipe");
        assert_eq!(no_title.full_text(), "recipe");
    }
}

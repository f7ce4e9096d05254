//! Heterogeneous network schema: node types, link types, and their
//! endpoint constraints (Definition 3.1 of the paper).
//!
//! A [`Schema`] is the typed "shape" of a heterogeneous network — e.g. the
//! publication schema of Figure 1(a) with node types {paper, author, venue,
//! term} and link types {writes, written-by, publishes, published-in,
//! contains, contained-in, cites}. Following Section III-A, the two
//! directions of a link are modelled as two distinct link types (tracked via
//! [`LinkTypeDef::reverse_of`]), except for symmetric relations such as
//! paper-paper citation where a single type may serve both ends.

use crate::error::{Endpoint, GraphError};

/// Identifier of a node type within a [`Schema`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeTypeId(pub u8);

/// Identifier of a link type within a [`Schema`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkTypeId(pub u8);

/// Definition of one link type: its name and endpoint node types.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkTypeDef {
    pub name: String,
    pub src: NodeTypeId,
    pub dst: NodeTypeId,
    /// The opposite-direction link type, when this relation is asymmetric
    /// and both directions are materialised.
    pub reverse_of: Option<LinkTypeId>,
}

/// The typed shape of a heterogeneous network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schema {
    node_types: Vec<String>,
    link_types: Vec<LinkTypeDef>,
}

impl Schema {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node type; returns its id.
    ///
    /// # Panics
    /// On a full `u8` id space; [`Schema::try_add_node_type`] reports the
    /// same condition as a [`GraphError`].
    pub fn add_node_type(&mut self, name: impl Into<String>) -> NodeTypeId {
        self.try_add_node_type(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Schema::add_node_type`].
    pub fn try_add_node_type(&mut self, name: impl Into<String>) -> Result<NodeTypeId, GraphError> {
        if self.node_types.len() >= u8::MAX as usize {
            return Err(GraphError::TooManyNodeTypes);
        }
        self.node_types.push(name.into());
        Ok(NodeTypeId((self.node_types.len() - 1) as u8))
    }

    /// Registers a directed link type from `src` to `dst`; returns its id.
    ///
    /// # Panics
    /// On unknown endpoint type ids or a full `u8` id space;
    /// [`Schema::try_add_link_type`] reports the same conditions as a
    /// [`GraphError`].
    pub fn add_link_type(
        &mut self,
        name: impl Into<String>,
        src: NodeTypeId,
        dst: NodeTypeId,
    ) -> LinkTypeId {
        self.try_add_link_type(name, src, dst).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Schema::add_link_type`].
    pub fn try_add_link_type(
        &mut self,
        name: impl Into<String>,
        src: NodeTypeId,
        dst: NodeTypeId,
    ) -> Result<LinkTypeId, GraphError> {
        if self.link_types.len() >= u8::MAX as usize {
            return Err(GraphError::TooManyLinkTypes);
        }
        if (src.0 as usize) >= self.node_types.len() {
            return Err(GraphError::UnknownEndpointType { end: Endpoint::Src, id: src.0 });
        }
        if (dst.0 as usize) >= self.node_types.len() {
            return Err(GraphError::UnknownEndpointType { end: Endpoint::Dst, id: dst.0 });
        }
        self.link_types.push(LinkTypeDef { name: name.into(), src, dst, reverse_of: None });
        Ok(LinkTypeId((self.link_types.len() - 1) as u8))
    }

    /// Registers a pair of mutually-reverse link types `(forward, backward)`.
    pub fn add_link_type_pair(
        &mut self,
        forward_name: impl Into<String>,
        backward_name: impl Into<String>,
        src: NodeTypeId,
        dst: NodeTypeId,
    ) -> (LinkTypeId, LinkTypeId) {
        let f = self.add_link_type(forward_name, src, dst);
        let b = self.add_link_type(backward_name, dst, src);
        self.link_types[f.0 as usize].reverse_of = Some(b);
        self.link_types[b.0 as usize].reverse_of = Some(f);
        (f, b)
    }

    /// Marks two already-registered link types as mutual reverses (shard
    /// loading re-registers pairs recorded in the file header).
    pub(crate) fn set_reverse_pair(&mut self, f: LinkTypeId, b: LinkTypeId) {
        self.link_types[f.0 as usize].reverse_of = Some(b);
        self.link_types[b.0 as usize].reverse_of = Some(f);
    }

    pub fn num_node_types(&self) -> usize {
        self.node_types.len()
    }

    pub fn num_link_types(&self) -> usize {
        self.link_types.len()
    }

    pub fn node_type_name(&self, t: NodeTypeId) -> &str {
        &self.node_types[t.0 as usize]
    }

    pub fn link_type(&self, t: LinkTypeId) -> &LinkTypeDef {
        &self.link_types[t.0 as usize]
    }

    /// Looks up a node type by name.
    pub fn node_type_by_name(&self, name: &str) -> Option<NodeTypeId> {
        self.node_types.iter().position(|n| n == name).map(|i| NodeTypeId(i as u8))
    }

    /// Looks up a link type by name.
    pub fn link_type_by_name(&self, name: &str) -> Option<LinkTypeId> {
        self.link_types.iter().position(|l| l.name == name).map(|i| LinkTypeId(i as u8))
    }

    /// All node type ids.
    pub fn node_type_ids(&self) -> impl Iterator<Item = NodeTypeId> {
        (0..self.node_types.len()).map(|i| NodeTypeId(i as u8))
    }

    /// All link type ids.
    pub fn link_type_ids(&self) -> impl Iterator<Item = LinkTypeId> {
        (0..self.link_types.len()).map(|i| LinkTypeId(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publication_schema() -> (Schema, [NodeTypeId; 4]) {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let venue = s.add_node_type("venue");
        let term = s.add_node_type("term");
        s.add_link_type_pair("writes", "written_by", author, paper);
        s.add_link_type_pair("publishes", "published_in", venue, paper);
        s.add_link_type_pair("contains", "contained_in", paper, term);
        s.add_link_type("cites", paper, paper);
        (s, [paper, author, venue, term])
    }

    #[test]
    fn registers_types_and_names() {
        let (s, [paper, author, ..]) = publication_schema();
        assert_eq!(s.num_node_types(), 4);
        assert_eq!(s.num_link_types(), 7);
        assert_eq!(s.node_type_name(paper), "paper");
        assert_eq!(s.node_type_by_name("author"), Some(author));
        assert_eq!(s.node_type_by_name("nope"), None);
    }

    #[test]
    fn reverse_pairs_point_at_each_other() {
        let (s, _) = publication_schema();
        let w = s.link_type_by_name("writes").unwrap();
        let wb = s.link_type_by_name("written_by").unwrap();
        assert_eq!(s.link_type(w).reverse_of, Some(wb));
        assert_eq!(s.link_type(wb).reverse_of, Some(w));
        let c = s.link_type_by_name("cites").unwrap();
        assert_eq!(s.link_type(c).reverse_of, None);
    }

    #[test]
    #[should_panic(expected = "unknown src node type")]
    fn rejects_unknown_endpoint() {
        let mut s = Schema::new();
        let a = s.add_node_type("a");
        s.add_link_type("bad", NodeTypeId(9), a);
    }

    #[test]
    fn serde_round_trip() {
        let (s, _) = publication_schema();
        let json = serde_json::to_string(&s).unwrap();
        let t: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(s, t);
    }
}

serde::impl_serde_newtype!(NodeTypeId);
serde::impl_serde_newtype!(LinkTypeId);
serde::impl_serde_struct!(LinkTypeDef { name, src, dst, reverse_of });
serde::impl_serde_struct!(Schema { node_types, link_types });

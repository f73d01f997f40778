// Package dtd implements Document Type Definitions: the model, a parser
// for internal and external DTD subsets, validation of document arenas
// against a DTD (content models are compiled to Glushkov automata), and
// the paper's "loosening" transformation (Section 6.2), which makes every
// required element and attribute optional so that pruned document views
// remain valid without revealing what was hidden.
package dtd

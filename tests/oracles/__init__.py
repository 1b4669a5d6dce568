"""Reference constructions that the tests check the package against; the
package never imports them."""

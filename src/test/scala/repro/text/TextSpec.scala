package repro.text

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

/** Unit + seeded-property tests for the string-processing substrate. */
class TextSpec extends AnyFunSuite {

  /** Deterministic property harness: 200 random cases per property. */
  private def forAllSeeded(seed: Long)(f: Random => Unit): Unit = {
    val rng = new Random(seed)
    (1 to 200).foreach(_ => f(rng))
  }

  private def randWord(rng: Random, max: Int): String =
    Iterator.fill(rng.nextInt(max + 1))(('a' + rng.nextInt(26)).toChar).mkString

  // --- removeSpecial ------------------------------------------------------

  test("removeSpecial strips punctuation") {
    assert(Text.removeSpecial("@name_12!") == "name12")
  }

  test("removeSpecial keeps alphanumerics verbatim") {
    assert(Text.removeSpecial("abcXYZ019") == "abcXYZ019")
  }

  test("removeSpecial of empty string is empty") {
    assert(Text.removeSpecial("") == "")
  }

  test("removeSpecial of null is null") {
    assert(Text.removeSpecial(null) == null)
  }

  test("removeSpecial drops non-ASCII characters") {
    assert(Text.removeSpecial("naïve→x") == "navex")
  }

  test("removeSpecial is idempotent (property)") {
    forAllSeeded(1) { rng =>
      val s = Iterator.fill(rng.nextInt(20))((32 + rng.nextInt(95)).toChar).mkString
      assert(Text.removeSpecial(Text.removeSpecial(s)) == Text.removeSpecial(s))
    }
  }

  test("removeSpecial output contains only alphanumerics (property)") {
    forAllSeeded(2) { rng =>
      val s = Iterator.fill(rng.nextInt(20))((32 + rng.nextInt(95)).toChar).mkString
      assert(Text.removeSpecial(s).forall(_.isLetterOrDigit))
    }
  }

  // --- editDistance -------------------------------------------------------

  test("editDistance of identical strings is 0") {
    assert(Text.editDistance("kitten", "kitten") == 0)
  }

  test("editDistance kitten->sitting is 3") {
    assert(Text.editDistance("kitten", "sitting") == 3)
  }

  test("editDistance to empty string is the length") {
    assert(Text.editDistance("", "abcd") == 4)
    assert(Text.editDistance("abcd", "") == 4)
  }

  test("editDistance single substitution") {
    assert(Text.editDistance("abc", "axc") == 1)
  }

  test("editDistance single insertion") {
    assert(Text.editDistance("abc", "abxc") == 1)
  }

  test("editDistance is symmetric (property)") {
    forAllSeeded(3) { rng =>
      val (a, b) = (randWord(rng, 12), randWord(rng, 12))
      assert(Text.editDistance(a, b) == Text.editDistance(b, a))
    }
  }

  test("editDistance satisfies the triangle inequality (property)") {
    forAllSeeded(4) { rng =>
      val (a, b, c) = (randWord(rng, 8), randWord(rng, 8), randWord(rng, 8))
      assert(Text.editDistance(a, c) <= Text.editDistance(a, b) + Text.editDistance(b, c))
    }
  }

  test("editDistance bounded between length gap and max length (property)") {
    forAllSeeded(5) { rng =>
      val (a, b) = (randWord(rng, 12), randWord(rng, 12))
      val d = Text.editDistance(a, b)
      assert(d >= math.abs(a.length - b.length) && d <= math.max(a.length, b.length))
    }
  }

  test("editDistance of single edit is exactly 1 (property)") {
    forAllSeeded(6) { rng =>
      val a = randWord(rng, 10) + "z"
      val pos = rng.nextInt(a.length)
      val b = a.substring(0, pos) + a.substring(pos + 1) // one deletion
      assert(Text.editDistance(a, b) == 1)
    }
  }

  test("editDistance of null is sentinel-large") {
    assert(Text.editDistance(null, "x") == Int.MaxValue)
  }

  // --- editDistanceLessThan ----------------------------------------------

  test("editDistanceLessThan agrees with editDistance (property)") {
    forAllSeeded(7) { rng =>
      val (a, b, k) = (randWord(rng, 10), randWord(rng, 10), 1 + rng.nextInt(6))
      assert(Text.editDistanceLessThan(a, b, k) == (Text.editDistance(a, b) < k))
    }
  }

  test("editDistanceLessThan early-exits on length gap") {
    assert(!Text.editDistanceLessThan("ab", "abcdefgh", 5))
  }

  test("editDistanceLessThan rejects nulls") {
    assert(!Text.editDistanceLessThan(null, "abc", 5))
    assert(!Text.editDistanceLessThan("abc", null, 5))
  }
}

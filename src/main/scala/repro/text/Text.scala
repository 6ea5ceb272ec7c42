package repro.text

/** String-processing substrate for the Fuzzy Suspects use case (paper §7.2
  * use case 4): the paper combines a Java UDF (`testlib#removeSpecial`) with
  * SQL++'s `edit_distance`. Both are implemented here as pure Scala
  * functions, which the enrichments call from their own UDFs.
  */
object Text {

  /** Drop every character that is not an ASCII letter or digit — the paper's
    * `removeSpecial` Java UDF.
    */
  def removeSpecial(s: String): String =
    if (s == null) null else s.filter(c => c.isLetterOrDigit && c < 128)

  /** Levenshtein edit distance (classic O(|a|·|b|) DP, two-row variant). */
  def editDistance(a: String, b: String): Int = {
    if (a == null || b == null) return Int.MaxValue
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var curr = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      curr(0) = i
      var j = 1
      while (j <= b.length) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        curr(j) = math.min(math.min(curr(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = curr; curr = t
      i += 1
    }
    prev(b.length)
  }

  /** Threshold-aware edit distance: returns true iff distance < maxExclusive.
    * Early-exits when the band minimum already exceeds the threshold, which
    * is the dominant case in a similarity join.
    */
  def editDistanceLessThan(a: String, b: String, maxExclusive: Int): Boolean = {
    if (a == null || b == null) return false
    if (math.abs(a.length - b.length) >= maxExclusive) return false
    editDistance(a, b) < maxExclusive
  }
}

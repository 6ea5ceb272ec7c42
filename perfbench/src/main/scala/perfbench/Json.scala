package perfbench

/** Minimal JSON writer for the result line and the trace file. */
object Json {

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
    java.lang.Double.toString(d)
  }

  def value(v: Any): String = v match {
    case s: String => str(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => num(d)
    case m: Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x })
    case other => throw new IllegalArgumentException(s"no JSON form for $other")
  }

  /** An object with keys in the given order. */
  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}:${value(v)}" }.mkString("{", ",", "}")
}

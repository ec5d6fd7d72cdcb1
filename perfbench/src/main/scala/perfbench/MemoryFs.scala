package perfbench

import java.util.concurrent.ConcurrentHashMap
import repro.storage.FileSystemWrapper
import scala.jdk.CollectionConverters._

/** A [[FileSystemWrapper]] that keeps files in memory. The CLOC selection
  * replay uses it so that it measures the selector's own work: on disk, its
  * few hundred tiny state files per policy mostly measure file-creation
  * latency, which varied twofold between runs on a 4-core VM.
  */
final class MemoryFileSystemWrapper extends FileSystemWrapper {
  private val files = new ConcurrentHashMap[String, Array[Byte]]()

  private def get(path: String): Array[Byte] =
    Option(files.get(path)).getOrElse(throw new java.io.FileNotFoundException(path))

  override def read(path: String, offset: Long, length: Int): Array[Byte] = {
    val b = get(path)
    if (offset + length > b.length) throw new java.io.EOFException(s"$path: $length@$offset past ${b.length}")
    java.util.Arrays.copyOfRange(b, offset.toInt, offset.toInt + length)
  }
  override def readAll(path: String): Array[Byte] = get(path).clone()
  override def size(path: String): Long = get(path).length.toLong
  override def write(path: String, bytes: Array[Byte]): Unit = files.put(path, bytes.clone())
  override def exists(path: String): Boolean = files.containsKey(path)
  override def delete(path: String): Unit = files.remove(path)
  override def list(path: String): Seq[String] = {
    val prefix = path.stripSuffix("/") + "/"
    files.keySet.asScala.iterator
      .filter(p => p.startsWith(prefix) && p.indexOf('/', prefix.length) < 0).toSeq.sorted
  }
}
